from fractions import Fraction

import pytest

from latfree.errors import DimensionError, UnsupportedSpaceError
from latfree.expr import parse, print_expr
from latfree.free import (
    LatticeMap,
    contractivity_audit,
    embed,
    extend_hom,
    generator,
    pullback_seminorm,
)
from latfree.norm import (
    fvl_space,
    maximality_audit,
    norm_certificate,
    seq_space,
)
from latfree.pwl import PwlFunction, equivalent, make_pwl, zero_pwl

F = Fraction


def from_text(text, n):
    """The element text(delta_{e_1}, ..., delta_{e_n}) of FVL[Q^n]."""
    return PwlFunction.from_expr(parse(text, n), n)


class TestEmbed:
    def test_realized_is_the_evaluation_functional(self):
        el = embed((1, 0), seq_space(1, 2))
        assert el.eval((5, 7)) == 5
        el2 = embed((2, -3), seq_space(1, 2))
        assert el2.eval((1, 1)) == -1

    def test_norm_recovers_the_vector_norm(self):
        space = seq_space(2, 2)
        cert = norm_certificate(embed((3, 4), space), space)
        assert cert.lower == 5 == cert.upper

    def test_zero_vector(self):
        space = seq_space(1, 2)
        cert = norm_certificate(embed((0, 0), space), space)
        assert cert.lower == 0 == cert.upper

    def test_vector_length_must_match_the_space(self):
        with pytest.raises(DimensionError):
            embed((1, 2, 3), seq_space(1, 2))


class TestGenerator:
    def test_projects_onto_its_coordinate(self):
        g = generator(fvl_space(2), 1)
        assert g.eval((3, -1)) == 3

    def test_has_unit_norm(self):
        cert = norm_certificate(generator(fvl_space(3), 2), fvl_space(3))
        assert cert.exact and cert.lower == 1 == cert.upper

    def test_index_validation(self):
        with pytest.raises(DimensionError):
            generator(fvl_space(2), 3)


class TestMakeElement:
    def test_independent_vectors_kept(self):
        el = make_pwl(parse(r"t1 \/ t2", 2), [(1, 0), (0, 1)])
        assert el.comp == ((F(1), F(0)), (F(0), F(1)))
        assert print_expr(el.expr) == r"t1 \/ t2"

    def test_duplicate_vector_cancels(self):
        el = make_pwl(parse("t1 - t2", 2), [(1,), (1,)])
        eq, _ = equivalent(el, zero_pwl(1))
        assert eq

    def test_linear_dependence_rewritten(self):
        el = make_pwl(parse("t3 - t1 - t2", 3), [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
        eq, _ = equivalent(el, zero_pwl(3))
        assert eq

    def test_realized_function_is_preserved(self):
        el = make_pwl(parse(r"t3 /\ (t1 + t2)", 3), [(1, 0), (0, 1), (1, 1)])
        direct = make_pwl(parse("t1 + t2", 2), [(1, 0), (0, 1)])
        eq, _ = equivalent(el, direct)
        assert eq

    def test_unreduced_vectors_extend_and_norm_as_reduced(self):
        # t3 = t1 + t2, t4 = t1 and t5 = 0 reduce the element to t2 \/ (t1 - t2)
        el = make_pwl(
            parse(r"t3 \/ (2*t4 - t2) + |t5| - t1", 5),
            [(1, 0), (0, 1), (1, 1), (1, 0), (0, 0)],
        )
        reduced = from_text(r"t2 \/ (t1 - t2)", 2)
        maps = [
            LatticeMap(
                source=fvl_space(2),
                target=seq_space("inf", 2),
                images=((1, 2), (3, -1)),
            ),
            LatticeMap(
                source=fvl_space(2),
                target=seq_space(1, 3),
                images=((1, 3, 0), (2, -1, 5)),
            ),
        ]
        for lat_map in maps:
            assert extend_hom(lat_map, el) == extend_hom(lat_map, reduced)
        cert = norm_certificate(el, fvl_space(2))
        ref = norm_certificate(reduced, fvl_space(2))
        assert cert.exact and ref.exact
        assert cert.lower == ref.lower == cert.upper == 2


class TestExtendHom:
    def test_generator_images_drive_the_extension(self):
        phi = LatticeMap(
            source=fvl_space(2),
            target=seq_space("inf", 2),
            images=((1, 0), (0, 1)),
        )
        fab = from_text(r"t1 \/ t2", 2)
        assert extend_hom(phi, fab) == (F(1), F(1))

    def test_well_defined_on_equivalent_elements(self):
        phi = LatticeMap(
            source=fvl_space(3),
            target=seq_space(1, 2),
            images=((2, 1), (-1, 3), (0, 5)),
        )
        fa = from_text(r"t1 + (t2 \/ t3)", 3)
        fb = from_text(r"(t1 + t2) \/ (t1 + t3)", 3)
        assert extend_hom(phi, fa) == extend_hom(phi, fb)

    def test_matrix_mode_extension_of_embedding_is_the_matrix_action(self):
        T = LatticeMap(
            source=seq_space(1, 2),
            target=seq_space(1, 2),
            images=((1, 3), (2, -1)),
        )
        xhat = embed((2, -5), seq_space(1, 2))
        assert extend_hom(T, xhat) == (F(-8), F(11))

    def test_extension_coordinates_equal_realized_at_dual_rows(self):
        phi = LatticeMap(
            source=fvl_space(3),
            target=seq_space(1, 2),
            images=((2, 1), (-1, 3), (0, 5)),
        )
        el = from_text(r"t1 /\ t2 + t1 \/ (2*t3)", 3)
        out = extend_hom(phi, el)
        assert out == tuple(el.eval(r) for r in phi.dual_rows)

    def test_lattice_operations_preserved(self):
        phi = LatticeMap(
            source=fvl_space(2),
            target=seq_space(1, 2),
            images=((1, 2), (2, -1)),
        )
        a, b = generator(fvl_space(2), 1), generator(fvl_space(2), 2)
        ab = from_text(r"t1 \/ t2", 2)
        ga, gb, gab = extend_hom(phi, a), extend_hom(phi, b), extend_hom(phi, ab)
        assert gab == tuple(max(p, q) for p, q in zip(ga, gb))


class TestLatticeMap:
    def test_admissibility_scale(self):
        phi = LatticeMap(
            source=fvl_space(2),
            target=seq_space("inf", 2),
            images=((3, 0), (0, 3)),
        )
        assert phi.admissibility_scale() == 3
        small = LatticeMap(
            source=fvl_space(2),
            target=seq_space("inf", 2),
            images=((F(1, 2), 0), (0, F(1, 2))),
        )
        assert small.admissibility_scale() == F(1, 2)

    def test_operator_scale_follows_the_target_norm(self):
        # x -> (x, x) from seq:2:1 to seq:1:2 has norm 2
        T = LatticeMap(
            source=seq_space(2, 1), target=seq_space(1, 2), images=((1, 1),)
        )
        assert T.admissibility_scale() == 2
        # the identity on seq:2 has norm 1
        T = LatticeMap(
            source=seq_space(2, 2), target=seq_space(2, 2), images=((1, 0), (0, 1))
        )
        assert T.admissibility_scale() == 1

    def test_seq_inf_source_takes_sign_vectors(self):
        # both generators map to 1, so e1 + e2 (norm 1 in seq:inf) maps to 2
        phi = LatticeMap(
            source=seq_space("inf", 2), target=seq_space(1, 1), images=((1,), (1,))
        )
        assert phi.admissibility_scale() == 2

    def test_fvl_target_rejected(self):
        with pytest.raises(UnsupportedSpaceError):
            LatticeMap(
                source=fvl_space(2), target=fvl_space(2), images=((1, 0), (0, 1))
            )


class TestContractivityAudit:
    def test_admissible_map_is_contractive(self):
        phi = LatticeMap(
            source=fvl_space(2),
            target=seq_space("inf", 2),
            images=((1, 0), (0, 1)),
        )
        fab = from_text(r"t1 \/ t2", 2)
        rep = contractivity_audit(phi, [fab])
        assert rep.passed
        assert rep.entries[0].observed == "1"

    def test_norm_preserving_case_is_tight(self):
        Tid = LatticeMap(
            source=seq_space(1, 2),
            target=seq_space(1, 2),
            images=((1, 0), (0, 1)),
        )
        rep = contractivity_audit(Tid, [embed((1, 1), seq_space(1, 2))])
        assert rep.passed
        assert rep.entries[0].observed == "2"
        assert rep.entries[0].bound == "2"

    def test_zero_map(self):
        phi = LatticeMap(
            source=fvl_space(2),
            target=seq_space("inf", 2),
            images=((0, 0), (0, 0)),
        )
        suite = [from_text(r"t1 \/ t2", 2), zero_pwl(2)]
        assert contractivity_audit(phi, suite).passed


class TestPullbackSeminorm:
    def test_generators_stay_admissible(self):
        phi = LatticeMap(
            source=fvl_space(2),
            target=seq_space("inf", 2),
            images=((1, 0), (0, 1)),
        )
        nu = pullback_seminorm(phi, "nu_phi")
        assert nu.name == "nu_phi"
        assert nu.leq(generator(fvl_space(2), 1), F(1))

    def test_joins_the_maximality_family(self):
        phi = LatticeMap(
            source=fvl_space(2),
            target=seq_space("inf", 2),
            images=((1, 0), (0, 1)),
        )
        fab = from_text(r"t1 \/ t2", 2)
        cert = norm_certificate(fab, fvl_space(2))
        rep = maximality_audit(fab, fvl_space(2), [pullback_seminorm(phi)], cert)
        assert rep.passed

    def test_oversized_images_are_rescaled(self):
        big = LatticeMap(
            source=fvl_space(2),
            target=seq_space("inf", 2),
            images=((3, 0), (0, 3)),
        )
        nu = pullback_seminorm(big)
        assert nu.leq(generator(fvl_space(2), 1), F(1))

    def test_euclidean_target_compares_through_squares(self):
        l2map = LatticeMap(
            source=fvl_space(2),
            target=seq_space(2, 2),
            images=((1, 0), (0, 1)),
        )
        fab = from_text(r"t1 \/ t2", 2)
        nu = pullback_seminorm(l2map)
        assert nu.leq(fab, F(2))
        assert not nu.leq(fab, F(1))
