from fractions import Fraction

from match_ybo.diagrams import (
    Configuration,
    County,
    Nation,
    canonical_structure_key,
    canonicalize,
    configuration_perm,
    enumerate_transversal,
    flip_configuration,
)
from match_ybo.matchcat import Permutation
from match_ybo.recipe import Germ, ParamPoint, generic_point
from match_ybo.signature import (
    degeneracy_partition,
    signature_check,
    signature_formula,
    signature_notation,
    spectrum,
)

from matchcat_oracles import matrix


def test_spectrum_of_block_diagonal():
    m = matrix((3, 5), {(1, 2): (0, 2, 2, 0)})
    # block eigenvalues are +-2
    assert spectrum(m) == (Fraction(-2), Fraction(2), Fraction(3), Fraction(5))


def test_spectrum_irrational():
    m = matrix((1, 1), {(1, 2): (0, 2, 1, 0)})
    assert spectrum(m) is None


def test_degeneracy_partition():
    assert degeneracy_partition((1, 1, 2, 2, 2, 7)) == (3, 2, 1)
    assert degeneracy_partition(()) == ()


def test_formula_sums_to_n_squared():
    for n in range(1, 8):
        for config in enumerate_transversal(n):
            assert sum(signature_formula(config)) == n * n


def test_formula_matches_sampled_spectrum():
    for n in range(1, 6):
        for config in enumerate_transversal(n):
            g = Germ(config, generic_point(config, seed=0))
            report = signature_check(g)
            assert report.matches, (config, report)
            assert report.sampled == report.formula


def test_formula_invariant_under_symmetries():
    for config in enumerate_transversal(4):
        base = signature_formula(config)
        assert signature_formula(flip_configuration(config)) == base
        for w in Permutation.all(4):
            assert signature_formula(configuration_perm(config, w)) == base


def test_single_nation_two_parts():
    # counties {1,2} first and {3} second: C(3,2)=3, z1=1, z2=0, s1=2, s2=1
    config = Configuration(
        3, (Nation((County((1, 2), "first"), County((3,), "second"))),)
    )
    assert signature_formula(config) == (6, 3)
    assert signature_notation(config) == "(6,3)"


def test_two_nations_pair_terms():
    config = Configuration(
        3,
        (
            Nation((County((1, 2), "first"),)),
            Nation((County((3,), "first"),)),
        ),
    )
    # nation {1,2}: single county, (C(2,2)+1+2, 1-1+0) = (4, 0); second drops
    assert signature_formula(config) == (4, 2, 2, 1)
    assert signature_notation(config) == "(4;1:2,2)"


def test_check_flags_degenerate_parameters():
    config = Configuration(
        2,
        (
            Nation((County((1,), "first"),)),
            Nation((County((2,), "first"),)),
        ),
    )
    # mu equal to an alpha collides eigenvalues
    params = ParamPoint(
        mu={(1, 2): Fraction(1)}, alpha={1: Fraction(1), 2: Fraction(2)}
    )
    report = signature_check(Germ(config, params))
    assert not report.matches
    assert report.sampled is not None
    # an irrational slash leaves sampled as None
    irr = ParamPoint(
        mu_sq={(1, 2): Fraction(2)}, alpha={1: Fraction(1), 2: Fraction(3)}
    )
    report = signature_check(Germ(config, irr))
    assert not report.matches
    assert report.sampled is None


# N: (classes, flip classes, distinct signatures). There are fewer signatures
# than flip classes: the signature separates classes only in part.
CLASS_TABLE = {
    3: (13, 10, 8),
    4: (46, 34, 21),
    5: (154, 97, 43),
    6: (533, 323, 98),
    7: (1802, 1007, 198),
    8: (6137, 3344, 419),
}


def test_classes_flip_classes_and_signatures():
    def key(config):
        return canonical_structure_key(canonicalize(config)[0])

    for n, row in CLASS_TABLE.items():
        configs = enumerate_transversal(n)
        flip_classes = {frozenset((key(c), key(flip_configuration(c)))) for c in configs}
        signatures = {signature_formula(c) for c in configs}
        assert (len(configs), len(flip_classes), len(signatures)) == row, n
