import random
from fractions import Fraction

from latfree.norm import constraint_norm, fvl_space, seq_space, tuple_admissible
from latfree.pwl import PwlFunction, equivalent, linear_pieces
from latfree.sampling import (
    equivalent_variant,
    random_admissible_map,
    random_admissible_tuple,
    random_expr,
    random_pair,
    random_vector,
)


class TestRandomExpr:
    def test_respects_arity_and_piece_cap(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(1, 3)
            e = random_expr(rng, n, max_pieces=4)
            assert e.program.max_var <= n
            assert len(linear_pieces(PwlFunction.from_expr(e, n))) <= 4

    def test_deterministic_for_a_fixed_seed(self):
        assert [random_expr(random.Random(3), 2) for _ in range(5)] == [
            random_expr(random.Random(3), 2) for _ in range(5)
        ]


class TestEquivalentVariant:
    def test_rewrites_preserve_the_function(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 3)
            e = random_expr(rng, n)
            e2 = equivalent_variant(rng, e)
            eq, witness = equivalent(
                PwlFunction.from_expr(e, n), PwlFunction.from_expr(e2, n)
            )
            assert eq, witness


class TestRandomPair:
    def test_surely_equal_flag_is_sound(self):
        rng = random.Random(13)
        seen_equal = seen_unequal = 0
        for _ in range(40):
            fe, ge, surely = random_pair(rng, 2)
            if surely:
                seen_equal += 1
                eq, _ = equivalent(
                    PwlFunction.from_expr(fe, 2), PwlFunction.from_expr(ge, 2)
                )
                assert eq
            else:
                seen_unequal += 1
        assert seen_equal > 5 and seen_unequal > 5


class TestRandomAdmissible:
    def test_tuples_satisfy_the_budget_exactly(self):
        rng = random.Random(17)
        for space in [fvl_space(2), seq_space(1, 3), seq_space("inf", 2)]:
            for k in (1, 2, 3):
                tup = random_admissible_tuple(rng, space, k)
                assert len(tup.points) == k
                assert tuple_admissible(tup)
                assert constraint_norm(tup) <= 1

    def test_maps_have_scale_at_most_one(self):
        rng = random.Random(19)
        for _ in range(15):
            src = fvl_space(rng.randint(1, 3))
            tgt = seq_space(rng.choice([1, "inf"]), rng.randint(1, 3))
            lat_map = random_admissible_map(rng, src, tgt)
            assert lat_map.admissibility_scale() <= 1


class TestRandomVector:
    def test_shape_and_exactness(self):
        rng = random.Random(23)
        v = random_vector(rng, 3)
        assert len(v) == 3
        assert all(isinstance(x, Fraction) for x in v)
