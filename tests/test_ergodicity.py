from fractions import Fraction as F

import numpy as np
import pytest

from ergolab import cyclic, haar, measure
from ergolab.ergodicity import (
    BirkhoffReport,
    DisjointnessCertificate,
    birkhoff_report,
    convolution_ergodicity_scenario,
    default_observables,
    is_ergodic_exact,
    validate_certificate,
)
from ergolab.errors import CertificateInvalid, FactorNotErgodic, InsufficientSteps
from ergolab.shifts import (
    Bernoulli,
    Convolution,
    Markov,
    Mixture,
    PeriodicOrbit,
    shift_haar,
    shift_space,
)

C2 = cyclic(2)
SYS2 = shift_space(C2)


def bern(p_one: str) -> Bernoulli:
    p = F(p_one)
    return Bernoulli(SYS2, measure(C2, [1 - p, p]))


# -- exact verdicts -----------------------------------------------------------


def test_bernoulli_ergodic():
    v = is_ergodic_exact(bern("1/4"))
    assert v.verdict == "ergodic" and v.method == "exact_bernoulli"


def test_identity_markov_not_ergodic():
    frozen = Markov(SYS2, ((F(1), F(0)), (F(0), F(1))), (F(1, 2), F(1, 2)))
    v = is_ergodic_exact(frozen)
    assert v.verdict == "non_ergodic" and v.method == "exact_markov"


def test_irreducible_markov_ergodic():
    m = Markov.stationary(SYS2, [["2/3", "1/3"], ["1/3", "2/3"]])
    assert is_ergodic_exact(m).verdict == "ergodic"


def test_periodic_orbit_ergodic():
    assert is_ergodic_exact(PeriodicOrbit(SYS2, (0, 1))).verdict == "ergodic"


def test_mixture_of_distinct_bernoullis_not_ergodic():
    mu = Mixture(SYS2, ((F(1, 2), bern("1/4")), (F(1, 2), bern("3/4"))))
    v = is_ergodic_exact(mu)
    assert v.verdict == "non_ergodic" and v.method == "exact_mixture"
    assert v.witness is not None


def test_mixture_of_identical_components_inherits_verdict():
    mu = Mixture(SYS2, ((F(1, 3), bern("1/4")), (F(2, 3), bern("1/4"))))
    v = is_ergodic_exact(mu)
    assert v.verdict == "ergodic" and v.method == "exact_mixture"


def test_mixture_periodic_vs_uniform_detected_beyond_depth_two():
    # "0011" matches the uniform bernoulli on all length-2 blocks but splits at 3
    per = PeriodicOrbit(SYS2, (0, 0, 1, 1))
    assert per.block_distribution(2) == shift_haar(SYS2).block_distribution(2)
    mu = Mixture(SYS2, ((F(1, 2), per), (F(1, 2), shift_haar(SYS2))))
    assert is_ergodic_exact(mu).verdict == "non_ergodic"


@pytest.mark.parametrize(
    "components, witness",
    [
        ([bern("1/4"), bern("3/4")], "components 0 and 1 disagree at depth 1"),
        ([PeriodicOrbit(SYS2, (0, 0, 1, 1)), shift_haar(SYS2)],
         "components 0 and 1 disagree at depth 3"),
        # same one-symbol law (3/4, 1/4) as bern("1/4"), different pairs
        ([bern("1/4"), bern("1/4"), Markov.stationary(SYS2, [["5/6", "1/6"], ["1/2", "1/2"]])],
         "components 0 and 2 disagree at depth 2"),
    ],
)
def test_mixture_witness_names_components_and_depth(components, witness):
    w = F(1, len(components))
    v = is_ergodic_exact(Mixture(SYS2, tuple((w, m) for m in components)))
    assert (v.verdict, v.method, v.witness) == ("non_ergodic", "exact_mixture", witness)


def test_convolution_is_unknown():
    conv = Convolution(SYS2, bern("1/4"), PeriodicOrbit(SYS2, (0, 1)))
    v = is_ergodic_exact(conv)
    assert v.verdict == "unknown" and v.method == "birkhoff"


def test_exact_verdicts_match_finite_group_orbit_search():
    # the one-step marginal dynamics of a frozen markov chain mirrors a
    # finite-group system with the identity map: both split into atoms
    from ergolab import ergodic_components, identity_hom, point_mass

    g = cyclic(2)
    comps = ergodic_components(g, identity_hom(g), haar(g))
    assert not comps.ergodic
    assert ergodic_components(g, identity_hom(g), point_mass(g, 1)).ergodic


# -- birkhoff evidence -----------------------------------------------------------


def test_birkhoff_uniform_bernoulli_consistent():
    rep = birkhoff_report(shift_haar(SYS2), [(0,)], n_steps=10**5, n_seeds=20, base_seed=3)
    assert rep.consistent
    row = rep.rows[0]
    assert abs(row.mean - 0.5) < row.bound
    assert row.dispersion < rep.dispersion_threshold


def test_birkhoff_bimodal_mixture_inconsistent():
    mu = Mixture(
        SYS2,
        (
            (F(1, 2), PeriodicOrbit(SYS2, (0,))),
            (F(1, 2), PeriodicOrbit(SYS2, (1,))),
        ),
    )
    rep = birkhoff_report(mu, [(0,)], n_steps=10**4, n_seeds=30, base_seed=1)
    assert not rep.consistent
    # across-seed averages sit at 0 and 1
    assert rep.rows[0].dispersion > 0.3


def test_birkhoff_convolution_matches_exact_cylinders():
    conv = Convolution(SYS2, bern("1/4"), PeriodicOrbit(SYS2, (0, 1)))
    obs = default_observables(SYS2, seed=0)
    rep = birkhoff_report(conv, obs, n_steps=10**5, n_seeds=20, base_seed=7)
    assert rep.consistent


def test_birkhoff_needs_enough_steps():
    with pytest.raises(InsufficientSteps):
        birkhoff_report(bern("1/4"), [(0,)], n_steps=100, n_seeds=2)


def test_default_observables_shape():
    obs = default_observables(SYS2, seed=5)
    assert sum(1 for w in obs if len(w) == 1) == 2
    assert sum(1 for w in obs if len(w) == 2) == 4
    assert sum(1 for w in obs if len(w) == 4) == 3
    assert obs == default_observables(SYS2, seed=5)


# -- certificates -------------------------------------------------------------------


def test_point_mass_certificate():
    cert = DisjointnessCertificate("point_mass", "identity fixed point factor")
    assert validate_certificate(cert, bern("1/4"), PeriodicOrbit(SYS2, (0,)))
    with pytest.raises(CertificateInvalid):
        validate_certificate(cert, bern("1/4"), PeriodicOrbit(SYS2, (0, 1)))


def test_periodic_vs_mixing_certificate():
    cert = DisjointnessCertificate("periodic_vs_mixing")
    assert validate_certificate(cert, bern("1/4"), PeriodicOrbit(SYS2, (0, 1)))
    assert validate_certificate(cert, PeriodicOrbit(SYS2, (0, 1)), bern("1/4"))
    degenerate = Bernoulli(SYS2, measure(C2, [1, 0]))
    with pytest.raises(CertificateInvalid):
        validate_certificate(cert, degenerate, PeriodicOrbit(SYS2, (0, 1)))


def test_declared_certificate_flagged_unverified():
    cert = DisjointnessCertificate("declared", "offline argument")
    assert validate_certificate(cert, bern("1/4"), bern("1/3")) is False


# -- the theorem scenario --------------------------------------------------------------


def test_scenario_point_mass_factor():
    rep = convolution_ergodicity_scenario(
        bern("1/4"),
        PeriodicOrbit(SYS2, (C2.identity,)),
        DisjointnessCertificate("point_mass"),
        n_steps=10**5,
        n_seeds=10,
    )
    assert rep.certificate_verified
    assert rep.invariance_exact
    assert rep.verdict == "ergodic-consistent"


def test_scenario_periodic_vs_mixing():
    rep = convolution_ergodicity_scenario(
        bern("1/4"),
        PeriodicOrbit(SYS2, (0, 1)),
        DisjointnessCertificate("periodic_vs_mixing"),
        n_steps=10**5,
        n_seeds=10,
    )
    assert rep.invariance_exact
    assert rep.verdict == "ergodic-consistent"


def test_scenario_rejects_non_ergodic_factor():
    bad = Mixture(SYS2, ((F(1, 2), bern("1/4")), (F(1, 2), bern("3/4"))))
    with pytest.raises(FactorNotErgodic):
        convolution_ergodicity_scenario(
            bern("1/4"),
            bad,
            DisjointnessCertificate("declared"),
            n_steps=10**4,
            n_seeds=2,
        )
