import numpy as np
import pytest
from helpers import labeled, random_distribution, random_markov

from expcompare import (
    ArgumentError,
    Distribution,
    LabelError,
    LabeledSet,
    ShapeError,
    Transition,
    binary_symmetric,
    compose,
    deterministic,
    expect,
    from_function,
    identity,
    point_mass,
    product,
    product_set,
    push,
    replicate,
    terminal,
    uniform,
)

AB = LabeledSet(("a", "b"))
ABC = LabeledSet(("a", "b", "c"))


class TestLabeledSet:
    def test_rejects_empty(self):
        with pytest.raises(ArgumentError):
            LabeledSet(())

    def test_rejects_duplicates(self):
        with pytest.raises(LabelError):
            LabeledSet(("a", "a"))

    def test_order_is_significant(self):
        assert LabeledSet(("a", "b")) != LabeledSet(("b", "a"))
        assert AB.index("b") == 1
        with pytest.raises(LabelError):
            AB.index("z")


class TestDistribution:
    def test_point_mass(self):
        np.testing.assert_array_equal(point_mass(AB, "a").weights, [1.0, 0.0])
        np.testing.assert_array_equal(point_mass(ABC, "c").weights, [0.0, 0.0, 1.0])
        with pytest.raises(LabelError):
            point_mass(AB, "z")

    def test_tiny_negative_clamped(self):
        d = Distribution(AB, [1.0 + 5e-10, -5e-10])
        assert d.weights[1] == 0.0
        assert d.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_large_negative_rejected(self):
        with pytest.raises(ArgumentError):
            Distribution(AB, [1.5, -0.5])

    def test_bad_sum_rejected(self):
        with pytest.raises(ArgumentError):
            Distribution(AB, [0.6, 0.2])

    def test_weights_are_immutable(self):
        d = uniform(AB)
        with pytest.raises(ValueError):
            d.weights[0] = 2.0


class TestExpect:
    def test_arithmetic(self):
        assert expect(Distribution(AB, [0.5, 0.5]), [2.0, 4.0]) == pytest.approx(3.0)
        assert expect(Distribution(AB, [0.9, 0.1]), [0.0, 1.0]) == pytest.approx(0.1)

    def test_point_mass_reads_function(self):
        f = [3.7, -1.2, 0.4]
        for lbl, want in zip(ABC.labels, f):
            assert expect(point_mass(ABC, lbl), f) == want

    def test_normalization(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = random_distribution(rng, ABC)
            assert expect(d, np.ones(3)) == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            expect(uniform(AB), [1.0, 2.0, 3.0])


class TestTransitionValidation:
    def test_column_sum_message_names_column(self):
        with pytest.raises(ArgumentError, match="column 'a' sums to 0.98"):
            Transition(AB, AB, [[0.88, 0.1], [0.1, 0.9]])

    def test_first_bad_column_named(self):
        with pytest.raises(ArgumentError, match="column 'b' sums to 0.9"):
            Transition(AB, AB, [[0.9, 0.1], [0.1, 0.8]])
        with pytest.raises(ArgumentError, match="column 'a' sums to 0.9$"):
            Transition(AB, AB, [[0.8, 0.1], [0.1, 0.7]])

    def test_negative_entry_rejected(self):
        with pytest.raises(ArgumentError):
            Transition(AB, AB, [[1.1, 0.0], [-0.1, 1.0]])

    def test_tiny_noise_cleaned(self):
        t = Transition(AB, AB, [[1.0 + 3e-10, 3e-10], [-3e-10, 1.0 - 3e-10]])
        assert t.matrix.min() >= 0.0
        np.testing.assert_allclose(t.matrix.sum(axis=0), 1.0, atol=1e-15)


class TestPush:
    def test_identity(self):
        d = Distribution(ABC, [0.2, 0.3, 0.5])
        np.testing.assert_allclose(push(identity(ABC), d).weights, d.weights)

    def test_terminal_collapses(self):
        d = Distribution(ABC, [0.2, 0.3, 0.5])
        out = push(terminal(ABC), d)
        assert out.space.labels == ("*",)
        assert out.weights[0] == pytest.approx(1.0)

    def test_bsc_column(self):
        out = push(binary_symmetric(0.1), point_mass(LabeledSet(("-1", "1")), "-1"))
        np.testing.assert_allclose(out.weights, [0.9, 0.1])

    def test_space_mismatch(self):
        with pytest.raises(ShapeError):
            push(identity(AB), uniform(ABC))


class TestCompose:
    def test_identity_law(self):
        e = binary_symmetric(0.1)
        np.testing.assert_allclose(compose(identity(e.target), e).matrix, e.matrix)
        np.testing.assert_allclose(compose(e, identity(e.source)).matrix, e.matrix)

    def test_terminal_absorbs(self):
        e = binary_symmetric(0.3)
        lhs = compose(terminal(e.target), e)
        np.testing.assert_allclose(lhs.matrix, terminal(e.source).matrix)

    def test_bsc_flip_probabilities_combine(self):
        # 0.1 * 0.8 + 0.9 * 0.2 = 0.26, worked by hand
        out = compose(binary_symmetric(0.2), binary_symmetric(0.1))
        np.testing.assert_allclose(out.matrix, binary_symmetric(0.26).matrix, atol=1e-15)

    def test_mismatch(self):
        with pytest.raises(ShapeError):
            compose(identity(ABC), binary_symmetric(0.1))

    def test_associativity_on_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            s1, s2, s3, s4 = (labeled(p, int(rng.integers(2, 5))) for p in "wxyz")
            f = random_markov(rng, s1, s2)
            g = random_markov(rng, s2, s3)
            h = random_markov(rng, s3, s4)
            left = compose(h, compose(g, f)).matrix
            right = compose(compose(h, g), f).matrix
            np.testing.assert_allclose(left, right, atol=1e-12)

    def test_push_compose_consistency(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            s1, s2, s3 = (labeled(p, int(rng.integers(2, 5))) for p in "xyz")
            f = random_markov(rng, s1, s2)
            g = random_markov(rng, s2, s3)
            d = random_distribution(rng, s1)
            np.testing.assert_allclose(
                push(compose(g, f), d).weights,
                push(g, push(f, d)).weights,
                atol=1e-12,
            )


class TestProduct:
    def test_identity_times_identity(self):
        out = product([identity(AB), identity(ABC)])
        np.testing.assert_array_equal(out.matrix, np.eye(6))
        assert out.source == product_set([AB, ABC])
        assert out.source.labels[0] == "a⊗a"

    def test_singleton(self):
        e = binary_symmetric(0.1)
        out = product([e])
        np.testing.assert_array_equal(out.matrix, e.matrix)

    def test_kronecker_entry(self):
        out = product([binary_symmetric(0.1), binary_symmetric(0.1)])
        assert out.matrix[0, 0] == pytest.approx(0.81)

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            product([])

    def test_product_of_markov_is_markov(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            parts = [
                random_markov(
                    rng,
                    labeled(f"s{i}", int(rng.integers(2, 4))),
                    labeled(f"t{i}", int(rng.integers(2, 4))),
                )
                for i in range(int(rng.integers(1, 4)))
            ]
            out = product(parts)
            np.testing.assert_allclose(out.matrix.sum(axis=0), 1.0, atol=1e-9)


class TestReplicate:
    def test_single_copy(self):
        e = binary_symmetric(0.1)
        np.testing.assert_array_equal(replicate(e, 1).matrix, e.matrix)

    def test_two_copies_column(self):
        # outer product of (0.9, 0.1) with itself
        out = replicate(binary_symmetric(0.1), 2)
        np.testing.assert_allclose(out.matrix[:, 0], [0.81, 0.09, 0.09, 0.01])
        assert out.source == binary_symmetric(0.1).source

    def test_degenerate_one_point_set(self):
        one = LabeledSet(("x",))
        out = replicate(identity(one), 3)
        assert out.matrix.shape == (1, 1)
        assert out.matrix[0, 0] == 1.0

    def test_zero_rejected(self):
        with pytest.raises(ArgumentError):
            replicate(binary_symmetric(0.1), 0)

    @pytest.mark.parametrize("n", [2.5, True, np.float64(2.0), "2"])
    def test_non_integer_count_rejected(self, n):
        with pytest.raises(ArgumentError, match="replication count must be an integer"):
            replicate(binary_symmetric(0.1), n)

    def test_numpy_integer_count_accepted(self):
        e = binary_symmetric(0.1)
        np.testing.assert_array_equal(replicate(e, np.int64(2)).matrix, replicate(e, 2).matrix)


class TestFromFunction:
    def test_identity_map(self):
        t = from_function(AB, AB, {"a": "a", "b": "b"})
        np.testing.assert_array_equal(t.matrix, np.eye(2))

    def test_constant_map(self):
        t = from_function(ABC, AB, lambda _: "b")
        np.testing.assert_array_equal(t.matrix, [[0, 0, 0], [1, 1, 1]])

    def test_swap_is_permutation(self):
        t = from_function(AB, AB, {"a": "b", "b": "a"})
        np.testing.assert_array_equal(t.matrix, [[0, 1], [1, 0]])

    def test_unknown_target_label(self):
        with pytest.raises(LabelError):
            from_function(AB, AB, {"a": "z", "b": "a"})

    def test_partial_map_rejected(self):
        with pytest.raises(LabelError):
            from_function(AB, AB, {"a": "a"})


class TestDeterministic:
    def test_index_picks_one_target_per_source(self):
        t = deterministic(ABC, AB, np.array([1, 0, 1]))
        np.testing.assert_array_equal(t.matrix, [[0, 1, 0], [1, 0, 1]])
        assert t.matrix.dtype == float and not t.matrix.flags.writeable

    def test_same_as_validated_transition(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            source, target = labeled("z", int(rng.integers(1, 7))), labeled("a", int(rng.integers(1, 5)))
            g = rng.integers(0, len(target), len(source))
            t = deterministic(source, target, g)
            ref = Transition(source, target, np.eye(len(target))[:, g])
            assert (t.source, t.target) == (ref.source, ref.target)
            np.testing.assert_array_equal(t.matrix, ref.matrix)

    def test_identity_and_from_function_keep_their_matrices(self):
        assert np.array_equal(identity(ABC).matrix, Transition(ABC, ABC, np.eye(3)).matrix)
        assert not identity(ABC).matrix.flags.writeable
        t = from_function(ABC, AB, {"a": "b", "b": "a", "c": "b"})
        np.testing.assert_array_equal(t.matrix, [[0, 1, 0], [1, 0, 1]])

    @pytest.mark.parametrize(
        "index, error",
        [
            (np.array([0, 1]), ShapeError),
            (np.array([[0, 1, 0]]), ShapeError),
            (np.array(0), ShapeError),
            (np.array([0.0, 1.0, 0.0]), ArgumentError),
            (np.array([True, False, True]), ArgumentError),
            (np.array([0, -1, 0]), ArgumentError),
            (np.array([0, 2, 0]), ArgumentError),
        ],
        ids=["short", "two_d", "scalar", "float", "bool", "negative", "out_of_range"],
    )
    def test_bad_index_rejected(self, index, error):
        with pytest.raises(error):
            deterministic(ABC, AB, index)
