import json
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ergolab import cyclic, measure, symmetric
from ergolab.ergodicity import (
    DISPERSION_THRESHOLD,
    BirkhoffReport,
    BirkhoffRow,
    DisjointnessCertificate,
    ErgodicityVerdict,
    birkhoff_report,
    default_observables,
    is_ergodic_exact,
    same_measure,
    validate_certificate,
)
from ergolab.errors import (
    CertificateInvalid,
    DepthLimitExceeded,
    InsufficientSteps,
)
from ergolab.exact import stationary_distribution
from ergolab.groups import direct_product
from ergolab.scenarios import parse_config, run_scenario
from ergolab.shifts import (
    Bernoulli,
    Convolution,
    Markov,
    Mixture,
    PeriodicOrbit,
    shift_haar,
    shift_space,
)
from ergolab.skew import product_system

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


# -- the chain core's irreducibility check against the transitive-closure reference --


def _markov_reference(mu: Markov) -> tuple[bool, bool]:
    """The reference, by the O(n^3) transitive closure over Fractions of the steps between
    states of positive initial mass: whether every such state reaches every one, itself
    too, through such states; and whether each reaches itself and is reached back by
    every state it reaches, so that they split into closed classes."""
    support = [i for i, p in enumerate(mu.initial) if p > 0]
    idx = {s: i for i, s in enumerate(support)}
    n = len(support)
    reach = [[False] * n for _ in range(n)]
    for a in support:
        for b in support:
            if mu.transition[a][b] > 0:
                reach[idx[a]][idx[b]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    closed = all(reach[i][i] and reach[i][j] == reach[j][i] for i in range(n) for j in range(n))
    return all(reach[i][j] for i in range(n) for j in range(n)), closed


def _rows(draw, n):
    """n exact stochastic rows with zero entries, each row with some mass."""
    rows = []
    for _ in range(n):
        raw = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
        rows.append(tuple(F(x, sum(raw)) for x in raw))
    return rows


@st.composite
def _chains(draw):
    """(n, transition, initial, validate) on C2-C4.

    Stationary: one chain, or two closed classes under a state shuffle. Each
    part is a random chain with zero entries, so transient states of
    stationary mass 0 come up; two classes each carry part of the initial
    mass. Unvalidated: any initial vector with zeros, where a state of
    positive mass can reach the others without being reached back.
    """
    n = draw(st.integers(2, 4))
    if draw(st.integers(0, 3)) == 0:
        raw = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any))
        return n, tuple(_rows(draw, n)), tuple(F(x, sum(raw)) for x in raw), False
    if draw(st.booleans()):
        parts = [(n, F(1))]
    else:
        k = draw(st.integers(1, n - 1))
        parts = [(k, F(1, 3)), (n - k, F(2, 3))]
    rows, initial = [], []
    for size, weight in parts:
        block = _rows(draw, size)
        try:
            pi = stationary_distribution(block)
        except ValueError:
            assume(False)
        offset = len(rows)
        rows += [(F(0),) * offset + row + (F(0),) * (n - offset - size) for row in block]
        initial += [weight * p for p in pi]
    order = draw(st.permutations(range(n)))
    shuffled = tuple(tuple(rows[a][b] for b in order) for a in order)
    return n, shuffled, tuple(initial[a] for a in order), True


@settings(max_examples=200, deadline=None)
@given(_chains())
# state 0 reaches state 1, which never steps back
@example((2, ((F(1, 2), F(1, 2)), (F(0), F(1))), (F(1, 2), F(1, 2)), False))
def test_markov_verdict_matches_transitive_closure_reference(chain):
    n, transition, initial, validate = chain
    mu = Markov(shift_space(cyclic(n)), transition, initial, validate)
    v = is_ergodic_exact(mu)
    irreducible, closed = _markov_reference(mu)
    if irreducible:
        assert (v.verdict, v.method, v.witness) == ("ergodic", "exact_markov", None)
    else:
        assert (v.verdict, v.method) == ("non_ergodic", "exact_markov")
        # a Markov measure's classes emit disjoint symbol sets, so they differ at depth 1
        assert v.witness == ("closed classes 0 and 1 disagree at depth 1" if closed
                             else "transition support is not irreducible")
    if validate:  # a stationary init never reaches a state that does not reach it back
        assert closed


@pytest.mark.parametrize(
    "mu, method",
    [
        (Bernoulli(shift_space(cyclic(3)), measure(cyclic(3), ["1/2", 0, "1/2"])), "exact_bernoulli"),
        (Bernoulli(SYS2, measure(C2, [0, 1])), "exact_bernoulli"),
        (PeriodicOrbit(SYS2, (1,)), "exact_orbit"),
        (PeriodicOrbit(shift_space(cyclic(3)), (0, 0, 1)), "exact_orbit"),
    ],
    ids=["bernoulli_zero_weight", "bernoulli_point", "orbit_p1", "orbit_p3"],
)
def test_bernoulli_and_orbit_chains_are_ergodic(mu, method):
    assert is_ergodic_exact(mu) == ErgodicityVerdict("ergodic", method)


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
        ([bern("1/4"), bern("3/4")], "closed classes 0 and 1 disagree at depth 1"),
        ([PeriodicOrbit(SYS2, (0, 0, 1, 1)), shift_haar(SYS2)],
         "closed classes 0 and 1 disagree at depth 3"),
        # same one-symbol law (3/4, 1/4) as bern("1/4"), different pairs
        ([bern("1/4"), bern("1/4"), Markov.stationary(SYS2, [["5/6", "1/6"], ["1/2", "1/2"]])],
         "closed classes 0 and 2 disagree at depth 2"),
    ],
    ids=["bernoullis-depth1", "orbit_vs_haar-depth3", "markov-depth2"],
)
def test_mixture_witness_names_components_and_depth(components, witness):
    w = F(1, len(components))
    v = is_ergodic_exact(Mixture(SYS2, tuple((w, m) for m in components)))
    assert (v.verdict, v.method, v.witness) == ("non_ergodic", "exact_mixture", witness)


def test_zero_weight_components_are_dropped():
    # the measure is B(1/2); the weight-0 B(1/4) is not part of it
    mu = Mixture(SYS2, ((F(1), bern("1/2")), (F(0), bern("1/4"))))
    v = is_ergodic_exact(mu)
    assert (v.verdict, v.method, v.witness) == ("ergodic", "exact_mixture", None)
    nested = Mixture(SYS2, ((F(0), PeriodicOrbit(SYS2, (0, 1))), (F(1), mu)))
    assert is_ergodic_exact(nested).verdict == "ergodic"
    split = Mixture(SYS2, ((F(1, 2), mu), (F(1, 2), bern("1/4"))))
    assert is_ergodic_exact(split).witness == "closed classes 0 and 1 disagree at depth 1"


def _haar_or_orbit_lift(haar_first: bool) -> Mixture:
    """Haar on C2 x C2 and periodic('0011') x Haar on C2 mixed half and half.

    The two agree on every block up to length 2 and differ at length 3.
    """
    nu = shift_haar(shift_space(direct_product(C2, C2)))
    pi = product_system(PeriodicOrbit(SYS2, (0, 0, 1, 1)), shift_haar(SYS2))
    first, second = (nu, pi) if haar_first else (pi, nu)
    return Mixture(nu.system, ((F(1, 2), first), (F(1, 2), second)))


@pytest.mark.parametrize("haar_first", [True, False])
def test_mixture_agreeing_past_depth_two_is_not_ergodic_in_either_order(haar_first):
    mu = _haar_or_orbit_lift(haar_first)
    for length in (1, 2):
        assert mu.components[0][1].block_table(length) == mu.components[1][1].block_table(length)
    v = is_ergodic_exact(mu)
    assert (v.verdict, v.method, v.witness) == (
        "non_ergodic", "exact_mixture", "closed classes 0 and 1 disagree at depth 3")
    assert not same_measure(*(m for _, m in mu.components))


def test_convolution_and_product_verdicts_are_exact():
    p01 = PeriodicOrbit(SYS2, (0, 1))
    # the product chain of the two orbits has two classes, emitting 0^N and 1^N
    v = is_ergodic_exact(Convolution(SYS2, p01, p01))
    assert (v.verdict, v.method, v.witness) == (
        "non_ergodic", "exact_convolution", "closed classes 0 and 1 disagree at depth 1")
    v = is_ergodic_exact(Convolution(SYS2, bern("1/4"), p01))
    assert v == ErgodicityVerdict("ergodic", "exact_convolution")
    # two classes, both emitting the orbit of 0110: ergodic, though the factors share
    # the rotation factor Z/2 and so are not disjoint
    conv = Convolution(SYS2, PeriodicOrbit(SYS2, (0, 0, 1, 1)), p01)
    assert same_measure(conv, PeriodicOrbit(SYS2, (0, 1, 1, 0)))
    assert is_ergodic_exact(conv) == ErgodicityVerdict("ergodic", "exact_convolution")
    v = is_ergodic_exact(product_system(bern("1/4"), bern("1/3")))
    assert v == ErgodicityVerdict("ergodic", "exact_product")


def test_same_measure_on_haar():
    haar2 = shift_haar(SYS2)
    assert same_measure(Markov.stationary(SYS2, [["1/2", "1/2"], ["1/2", "1/2"]]), haar2)
    assert same_measure(Convolution(SYS2, bern("1/2"), PeriodicOrbit(SYS2, (0, 1))), haar2)
    # uniform on 2-blocks, but not Haar
    assert not same_measure(PeriodicOrbit(SYS2, (0, 0, 1, 1)), haar2)
    assert not same_measure(bern("1/4"), haar2)


def _random_chain_measure(draw, system):
    """A small measure of a chain kind on C2, C3 or C2 x C2, where it is a product of C2 leaves
    or a leaf; periodic words are short enough that the brute-force tables stay small."""
    def probabilities(k):
        raw = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
        raw[draw(st.integers(0, k - 1))] += 1
        return [F(r, sum(raw)) for r in raw]

    def leaf(sys, kinds=("bernoulli", "markov", "periodic_orbit")):
        k = sys.alphabet.order
        kind = draw(st.sampled_from(kinds))
        if kind == "bernoulli":
            return Bernoulli(sys, measure(sys.alphabet, probabilities(k)))
        if kind == "markov":
            try:
                return Markov.stationary(sys, [probabilities(k) for _ in range(k)])
            except ValueError:  # no unique stationary distribution
                assume(False)
        w = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=3 if k == 2 else 2))
        root = next(d for d in range(1, len(w) + 1) if w == w[:d] * (len(w) // d))
        return PeriodicOrbit(sys, tuple(w[:root]))

    if system.alphabet.order == 4:
        if draw(st.booleans()):
            return leaf(system, ("bernoulli", "periodic_orbit"))
        return product_system(leaf(SYS2), leaf(SYS2))
    shape = draw(st.sampled_from(["leaf", "mixture", "convolution"]))
    if shape == "convolution":  # a periodic factor keeps the product chain small
        return Convolution(system, leaf(system, ("periodic_orbit",)), leaf(system))
    if shape == "mixture":
        w = F(draw(st.integers(1, 3)), 4)
        return Mixture(system, ((w, leaf(system)), (1 - w, leaf(system))))
    return leaf(system)


@st.composite
def _measure_pairs(draw):
    system = draw(st.sampled_from([SYS2, shift_space(cyclic(3)),
                                   shift_space(direct_product(C2, C2))]))
    return _random_chain_measure(draw, system), _random_chain_measure(draw, system)


@settings(max_examples=150, deadline=None)
@given(_measure_pairs())
# equal outputs from different chains: B(1/2) * (0 1) is Haar
@example((Convolution(SYS2, PeriodicOrbit(SYS2, (0, 1)), bern("1/2")), shift_haar(SYS2)))
# two closed classes, both emitting the orbit of 0110, against the orbit itself
@example((Convolution(SYS2, PeriodicOrbit(SYS2, (0, 0, 1, 1)), PeriodicOrbit(SYS2, (0, 1))),
          PeriodicOrbit(SYS2, (0, 1, 1, 0))))
def test_same_measure_and_witness_depth_match_block_tables(pair):
    """Brute force: equal blocks up to length n_A + n_B - 1 pin down the measure (Paz, 1971)."""
    mu, nu = pair
    depth = len(mu._chain[0]) + len(nu._chain[0]) - 1
    first = next((length for length in range(1, depth + 1)
                  if mu.block_table(length) != nu.block_table(length)), None)
    assert same_measure(mu, nu) == (first is None)
    if is_ergodic_exact(mu).verdict == is_ergodic_exact(nu).verdict == "ergodic":
        v = is_ergodic_exact(Mixture(mu.system, ((F(1, 3), mu), (F(2, 3), nu))))
        if first is None:
            assert (v.verdict, v.witness) == ("ergodic", None)
        else:  # class 0 is one of mu's; the first class that differs is one of nu's
            assert v.verdict == "non_ergodic"
            assert re.fullmatch(f"closed classes 0 and \\d+ disagree at depth {first}", v.witness)


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


def test_birkhoff_needs_a_seed():
    with pytest.raises(ValueError, match="at least 1 seed, got 0"):
        birkhoff_report(bern("1/4"), [(0,)], n_steps=10**4, n_seeds=0)


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


BERN_1_4 = {"kind": "bernoulli", "marginal": ["3/4", "1/4"]}


def _theorem_rows(left, right, certificate, **parameters):
    """The rows of one `convolution_ergodicity` scenario, by quantity."""
    doc = {"scenarios": [{"id": "t", "kind": "convolution_ergodicity", "parameters": {
        "alphabet": {"family": "cyclic", "n": 2}, "left": left, "right": right,
        "certificate": {"kind": certificate}, **parameters}}]}
    (sc,) = parse_config(json.dumps(doc))
    return {r.quantity: r for r in run_scenario(sc).rows}


def test_scenario_point_mass_factor():
    rows = _theorem_rows(BERN_1_4, {"kind": "periodic_orbit", "word": [0]}, "point_mass",
                         steps=10**5, seed_count=10)
    assert rows["certificate_verified"].passed
    assert rows["convolution_invariant_exact"].passed
    assert rows["ergodic_consistent"].passed


def test_scenario_periodic_vs_mixing():
    rows = _theorem_rows(BERN_1_4, {"kind": "periodic_orbit", "word": [0, 1]},
                         "periodic_vs_mixing", steps=10**5, seed_count=10)
    assert rows["convolution_invariant_exact"].passed
    assert rows["ergodic_consistent"].passed


def test_declared_certificate_row_reads_unverified_and_passes():
    # declared is unverified, not refuted: value 0 within [0, 1]; a checked kind reads 1
    declared = _theorem_rows(BERN_1_4, {"kind": "periodic_orbit", "word": [0, 1]}, "declared",
                             steps=10**4, seed_count=2)["certificate_verified"]
    assert (declared.value, declared.lower, declared.upper) == (0.0, 0.0, 1.0)
    assert declared.passed
    checked = _theorem_rows(BERN_1_4, {"kind": "periodic_orbit", "word": [0, 1]},
                            "periodic_vs_mixing", steps=10**4, seed_count=2)["certificate_verified"]
    assert (checked.value, checked.lower, checked.upper) == (1.0, 1.0, 1.0)
    assert checked.passed


def test_scenario_accepts_factor_with_zero_weight_component():
    left = {
        "kind": "mixture",
        "components": [
            ["1", {"kind": "bernoulli", "marginal": ["3/4", "1/4"]}],
            ["0", {"kind": "bernoulli", "marginal": ["1/4", "3/4"]}],
        ],
    }
    doc = {"scenarios": [{
        "id": "zero-weight",
        "kind": "convolution_ergodicity",
        "parameters": {
            "alphabet": {"family": "cyclic", "n": 2},
            "left": left,
            "right": {"kind": "periodic_orbit", "word": [0, 1]},
            "certificate": {"kind": "declared"},
            "steps": 10**5,
            "seed_count": 4,
        },
    }]}
    (sc,) = parse_config(json.dumps(doc))
    result = run_scenario(sc)
    assert [r.quantity for r in result.rows if not r.passed] == []
    assert result.rows[-1].quantity == "ergodic_consistent"


def test_scenario_rejects_non_ergodic_factor():
    bad = {"kind": "mixture", "components": [
        ["1/2", BERN_1_4], ["1/2", {"kind": "bernoulli", "marginal": ["1/4", "3/4"]}]]}
    for expect_rejection in (True, False):
        rows = _theorem_rows(BERN_1_4, bad, "declared", steps=10**4, seed_count=2,
                             expect_rejection=expect_rejection)
        # the non-ergodic factor ends the run: one row, passing when the rejection was expected
        assert list(rows) == ["rejected_with_factor_not_ergodic"]
        assert rows["rejected_with_factor_not_ergodic"].passed is expect_rejection


# -- birkhoff window counts against the per-observable boolean loop -------------------


def _oracle_birkhoff(mu, observables, n_steps, n_seeds, base_seed=0,
                     dispersion_threshold=DISPERSION_THRESHOLD):
    """The report as the boolean loop built it: one pass per observable symbol."""
    observables = [tuple(w) for w in observables]
    max_len = max(len(w) for w in observables)
    means = np.zeros((len(observables), n_seeds))
    for s in range(n_seeds):
        word = mu.sample(n_steps + max_len - 1, base_seed + s)
        for i, obs in enumerate(observables):
            hits = np.ones(n_steps, dtype=bool)
            for j, sym in enumerate(obs):
                hits &= word[j : j + n_steps] == sym
            means[i, s] = hits.mean()
    rows = []
    all_pass = True
    for i, obs in enumerate(observables):
        p = float(mu.cylinder(obs))
        grand = float(means[i].mean())
        disp = float(means[i].std())
        bound = 3.0 * (p * (1.0 - p) / n_steps) ** 0.5
        mean_ok, disp_ok = abs(grand - p) <= bound + 1e-12, disp < dispersion_threshold
        all_pass &= mean_ok and disp_ok
        rows.append(BirkhoffRow(obs, p, grand, bound, disp, mean_ok, disp_ok))
    return BirkhoffReport(tuple(rows), n_steps, n_seeds, dispersion_threshold, all_pass)


S3 = symmetric(3)
SYS_S3 = shift_space(S3)
SYS3 = shift_space(cyclic(3))
BERN_S3 = Bernoulli(SYS_S3, measure(S3, [F(k, 21) for k in range(1, 7)]))
MIXED_OBSERVABLES = [(0,), (), (1, 0, 1), (0,), (1, 1), (1, 0, 1), (0, 0, 0, 1, 0), ()]

BIRKHOFF_CASES = [
    (Convolution(SYS2, bern("1/4"), PeriodicOrbit(SYS2, (0, 1))),
     default_observables(SYS2, 3) + MIXED_OBSERVABLES),
    (Convolution(SYS_S3, BERN_S3, PeriodicOrbit(SYS_S3, (1, 2, 5))),
     [(5,), (2, 3), (1, 2, 5, 1), (0,), (2, 3), (), (4, 4, 4)]),
    (Convolution(SYS_S3, PeriodicOrbit(SYS_S3, (1, 2, 5)), BERN_S3), [(3, 1), (0, 5, 2)]),
    (Mixture(SYS2, ((F(1, 3), bern("1/4")),
                    (F(2, 3), Markov.stationary(SYS2, [["1/2", "1/2"], ["1", "0"]])))),
     MIXED_OBSERVABLES),
    # lengths on both sides of the int32 codes' end (2^31 on C2; 3^19 < 2^31 < 3^20 on C3);
    # (1,) * 63 codes to 2^63 - 1, the largest int64
    (PeriodicOrbit(SYS2, (1,)), [(1,) * 31, (1,) * 32, (1,) * 63, (0,) + (1,) * 62]),
    (PeriodicOrbit(SYS3, (2,)), [(2,) * 19, (2,) * 20, (2,) * 39]),
    (shift_haar(SYS2), [(1, 0) * 6, (0,) * 31, (1,) * 40]),
]


@pytest.mark.parametrize("mu, observables", BIRKHOFF_CASES,
                         ids=[f"{m.kind}-{m.system.alphabet.order}" for m, _ in BIRKHOFF_CASES])
def test_birkhoff_report_matches_boolean_loop(mu, observables):
    args = (observables, 10**4 + 7, 3, 5)
    assert birkhoff_report(mu, *args) == _oracle_birkhoff(mu, *args)


@pytest.mark.parametrize("length", [8, 9, 16, 17, 32, 33])
def test_birkhoff_report_matches_boolean_loop_at_code_dtype_edges(length):
    # C2 codes of lengths 8, 16 and 32 fill uint8, uint16 and uint32 to the top;
    # one symbol more takes the next dtype
    observables = [(1,) * length, (0,) + (1,) * (length - 1), ((1, 0) * length)[:length], (1,)]
    for mu in (PeriodicOrbit(SYS2, (1,)), PeriodicOrbit(SYS2, (0, 1)), bern("1/4")):
        args = (observables, 10**4 + 7, 2, 5)
        assert birkhoff_report(mu, *args) == _oracle_birkhoff(mu, *args)


@st.composite
def _birkhoff_case(draw):
    """A C2 or C3 measure of any kind, observables of length 0..5, a few seeds."""
    system = draw(st.sampled_from([SYS2, SYS3]))
    n = system.alphabet.order

    def probabilities():
        raw = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        raw[draw(st.integers(0, n - 1))] += 1
        return [F(r, sum(raw)) for r in raw]

    def factor():
        kind = draw(st.sampled_from(["bernoulli", "markov", "periodic_orbit"]))
        if kind == "bernoulli":
            return Bernoulli(system, measure(system.alphabet, probabilities()))
        if kind == "markov":
            try:
                return Markov.stationary(system, [probabilities() for _ in range(n)])
            except ValueError:  # no unique stationary distribution
                assume(False)
        w = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
        root = next(d for d in range(1, len(w) + 1) if w == w[:d] * (len(w) // d))
        return PeriodicOrbit(system, tuple(w[:root]))

    shape = draw(st.sampled_from(["factor", "convolution", "mixture"]))
    if shape == "factor":
        mu = factor()
    elif shape == "convolution":
        mu = Convolution(system, factor(), factor())
    else:
        w = F(draw(st.integers(0, 4)), 4)
        mu = Mixture(system, ((w, factor()), (1 - w, factor())))
    word = st.lists(st.integers(0, n - 1), max_size=5).map(tuple)
    observables = draw(st.lists(word, min_size=1, max_size=6))
    return mu, observables, draw(st.integers(1, 3)), draw(st.integers(0, 10**6))


@settings(max_examples=30, deadline=None)
@given(_birkhoff_case())
def test_birkhoff_report_matches_boolean_loop_on_random_cases(case):
    mu, observables, n_seeds, base_seed = case
    args = (observables, 10**4, n_seeds, base_seed)
    assert birkhoff_report(mu, *args) == _oracle_birkhoff(mu, *args)


@pytest.mark.parametrize("bad", [(2,), (0, 1, 2), (-1,)])
def test_birkhoff_rejects_symbols_outside_the_alphabet(bad):
    # a window code would alias such a symbol with a real word
    with pytest.raises(ValueError, match="outside the alphabet"):
        birkhoff_report(bern("1/4"), [(0,), bad], n_steps=10**4, n_seeds=1)


def test_birkhoff_window_codes_guarded_at_int64():
    with pytest.raises(DepthLimitExceeded, match="2\\^63"):
        birkhoff_report(bern("1/4"), [(0,) * 64], n_steps=10**4, n_seeds=1)
    with pytest.raises(DepthLimitExceeded, match="3\\^40"):
        birkhoff_report(PeriodicOrbit(SYS3, (2,)), [(2,) * 40], n_steps=10**4, n_seeds=1)
