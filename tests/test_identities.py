"""The paper's discrete identities on generated intensity pairs.

Each property draws 1-3 atoms with masses in [0.05, 1.5] (a target atom may
also carry no mass, which gives the Lebesgue decompositions a singular
part) and a built-in functional, and checks one identity against the exact
engine: the variational series under every decomposition, the parametric
series term by term, the Hellinger law identity, the admissibility verdicts
against their clamped values (one divergent pair included), the change of
measure E_rho[L f] = E_nu f and the likelihood ratio's first two moments
(each table's caps cover the measures its integrand is weighted by), the
Fock identity and the Mecke identity.  The symmetry of D^n is checked on drawn configurations and
points, against the count kernel too, and D^n over a multiset against its
signed binomial sum on the multiplicity lattice.  The Monte Carlo series
(``mc_series`` through ``variational_series``) is checked against
enumeration within 4 of its own stderrs, and each side of the
thinning/superposition coupling (``sampler.couple_counts``) against its
Poisson law.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from poissonpert import (AtomWindow, Functional, MCPlan, PerturbationFamily, PointConfiguration,
                         RngStream, admissibility_check, constant_functional, count_functional, count_squared,
                         difference_n, discrete, exact_expectation, fock_identity_check,
                         hellinger_poisson, parametric_series, poisson_hellinger_exact,
                         reweighted_expectation, second_moment_bound, second_moment_exact,
                         threshold_indicator, variational_series, void_indicator)
from poissonpert.configuration import difference_counts
from poissonpert.measures import DEFAULT_CAP
from poissonpert.sampler import couple_counts

ATOMS = ["a", "b", "c"]
DECOMPOSITIONS = ["direct", "lebesgue-nu", "lebesgue-lambda", "monotone"]
masses = st.floats(0.05, 1.5)
masses_or_none = st.one_of(st.just(0.0), masses)
# orders of the Fock expansion: on the largest inputs (three atoms of mass
# 1.5, at_least 2) 30 orders leave a gap of 4e-15, 24 orders 8e-11
FOCK_ORDERS = 30
# the fixed stream of every Monte Carlo property
STREAM = RngStream(20240811).child(16)


@st.composite
def pairs(draw):
    """(lam, nu) on 1-3 atoms: lam charges every atom, nu may skip some."""
    atoms = ATOMS[:draw(st.integers(1, 3))]
    lam = {a: draw(masses) for a in atoms}
    nu = {a: draw(masses_or_none) for a in atoms}
    return discrete(lam), discrete(nu)


@st.composite
def functionals(draw):
    """A built-in functional over a drawn window (or none)."""
    window = draw(st.one_of(st.none(), st.sets(st.sampled_from(ATOMS), min_size=1)
                            .map(AtomWindow)))
    return draw(st.sampled_from([void_indicator(window), count_functional(window),
                                 count_squared(window), threshold_indicator(1, window),
                                 threshold_indicator(2, window)]))


@given(pair=pairs(), f=functionals())
def test_variational_series_reaches_the_target_under_every_decomposition(pair, f):
    lam, nu = pair
    target = exact_expectation(f, nu)
    values = {d: variational_series(f, lam, nu, decomposition=d, strict=True).value
              for d in DECOMPOSITIONS}
    # the decomposition only chooses the admissibility gate, never the terms
    assert len(set(values.values())) == 1
    assert values["direct"] == pytest.approx(target, rel=1e-9, abs=1e-10)


@given(pair=pairs(), f=functionals(), theta=st.floats(0.25, 1.0))
def test_parametric_series_equals_variational_term_by_term(pair, f, theta):
    lam, nu = pair
    rho = lam.plus(nu)
    h_lam, h_nu = lam.density_against(rho), nu.density_against(rho)
    family = PerturbationFamily.linear(rho, h_lam, {a: h_nu[a] - h_lam[a] for a in rho.atoms})
    at_theta = family.measure_at(theta)
    para = parametric_series(f, family, theta)
    vari = variational_series(f, family.base_measure(), at_theta)
    assert para.terms == pytest.approx(vari.terms, rel=1e-12, abs=1e-14)
    assert para.value == pytest.approx(exact_expectation(f, at_theta), rel=1e-9, abs=1e-10)


@given(pair=pairs())
def test_hellinger_law_identity(pair):
    lam, nu = pair
    assert hellinger_poisson(lam, nu) == pytest.approx(poisson_hellinger_exact(lam, nu),
                                                       rel=1e-12, abs=1e-14)


@given(pair=pairs())
@example(pair=(discrete({"a": 1.0}), discrete({"a": 4e12})))
def test_admissibility_verdicts_read_their_clamped_values(pair):
    rep = admissibility_check(*pair)
    clamped = {"l2_gap_low": rep.l2_gap_low, "l2_gap_high": rep.l2_gap_high,
               "hellinger": rep.hellinger, "lebesgue_gap_nu": rep.lebesgue_gap_nu,
               "lebesgue_gap_lam": rep.lebesgue_gap_lam}
    assert all(0.0 <= v <= DEFAULT_CAP for v in clamped.values())
    assert rep.l2_ok == (rep.l2_gap_low < DEFAULT_CAP and rep.l2_gap_high < DEFAULT_CAP)
    assert rep.hellinger_ok == (rep.hellinger < DEFAULT_CAP)
    assert rep.lebesgue_nu_ok == (rep.lebesgue_gap_nu < DEFAULT_CAP)
    assert rep.lebesgue_lam_ok == (rep.lebesgue_gap_lam < DEFAULT_CAP)
    if rep.monotone_up is not None:
        assert rep.monotone_ok == (rep.monotone_up[1] < DEFAULT_CAP)
    elif rep.monotone_down is not None:
        assert rep.monotone_down <= DEFAULT_CAP
        assert rep.monotone_ok == (rep.monotone_down < DEFAULT_CAP)
    else:
        assert rep.monotone_ok is None
    # the ok column of rows(): a clamped value's own comparison, and the
    # monotone verdict on every monotone row
    for name, value, ok in rep.rows():
        assert ok == (clamped[name] < DEFAULT_CAP if name in clamped else rep.monotone_ok)
        assert isinstance(ok, bool)


@given(pair=pairs(), f=functionals())
@example(pair=(discrete({"a": 0.47}), discrete({"a": 1.35})), f=count_squared())
@example(pair=(discrete({"a": 0.5}), discrete({"a": 1.5})), f=count_squared())
def test_change_of_measure_reaches_the_target_expectation(pair, f):
    rho, nu = pair  # rho charges every atom, so it dominates nu
    target = exact_expectation(f, nu)
    assert abs(reweighted_expectation(f, nu, rho) - target) <= 2e-14 * max(1.0, abs(target))


@given(pair=pairs())
def test_likelihood_ratio_has_mean_one_and_attains_its_second_moment_bound(pair):
    rho, nu = pair  # rho charges every atom, so it dominates nu
    mean = reweighted_expectation(constant_functional(1.0), nu, rho)
    assert mean == pytest.approx(1.0, abs=1e-10)
    assert second_moment_exact(nu, rho) == pytest.approx(second_moment_bound(nu, rho),
                                                         rel=1e-10)


@given(data=st.data(), f=functionals())
def test_differences_are_symmetric_and_match_the_count_kernel(data, f):
    counts = data.draw(st.lists(st.integers(0, 3), min_size=3, max_size=3))
    picks = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
    shuffled = data.draw(st.permutations(picks))
    phi = PointConfiguration.from_counts(ATOMS, counts)
    value = difference_n(f, phi, [ATOMS[i] for i in picks])
    # math.fsum sums the 2^n signed values exactly, so no order moves a bit
    assert difference_n(f, phi, [ATOMS[i] for i in shuffled]) == value
    assert difference_counts(f, np.array([counts]), ATOMS, np.array([shuffled]))[0] == value


@given(data=st.data(), f=functionals())
def test_differences_on_the_multiplicity_lattice(data, f):
    # D^k f(c) over a multiset with k_i copies of atom i is a signed binomial
    # sum over the prod (k_i + 1) lattice points c + j, j <= k
    atoms = ATOMS[:data.draw(st.integers(1, 3))]
    counts = data.draw(st.lists(st.integers(0, 3), min_size=len(atoms), max_size=len(atoms)))
    k = data.draw(st.lists(st.integers(0, 3), min_size=len(atoms), max_size=len(atoms)))
    terms = [math.prod((-1) ** (ki - ji) * math.comb(ki, ji) for ki, ji in zip(k, j))
             * f(PointConfiguration.from_counts(atoms, [c + ji for c, ji in zip(counts, j)]))
             for j in itertools.product(*(range(ki + 1) for ki in k))]
    multiset = [a for a, ki in zip(atoms, k) for _ in range(ki)]
    value = difference_n(f, PointConfiguration.from_counts(atoms, counts), multiset)
    assert abs(value - math.fsum(terms)) <= 1e-12 * math.fsum(abs(t) for t in terms)


@st.composite
def indicators(draw):
    """A void or at-least indicator over a drawn window (or none)."""
    window = draw(st.one_of(st.none(), st.sets(st.sampled_from(ATOMS), min_size=1)
                            .map(AtomWindow)))
    return draw(st.sampled_from([void_indicator(window), threshold_indicator(1, window),
                                 threshold_indicator(2, window)]))


@given(pair=pairs(), f=indicators(), g=indicators())
def test_fock_identity(pair, f, g):
    lam, _ = pair
    assert fock_identity_check(f, g, lam, FOCK_ORDERS).gap <= 1e-10


@given(pair=pairs(), g=functionals(), data=st.data())
def test_mecke_identity(pair, g, data):
    # E sum_{x in Phi} f(x, Phi - delta_x) = int E f(a, Phi) m(da) for
    # f(x, phi) = w(x) g(phi), both sides exact
    m, _ = pair
    atoms = m.support()
    w = {a: data.draw(st.floats(-1.0, 1.0)) for a in atoms}
    lhs = Functional(lambda phi: math.fsum(mult * w[x] * g(phi.remove_one(x))
                                           for x, mult in phi.items()),
                     growth_degree=(g.growth_degree or 0) + 1, name="mecke left side")
    mean_g = exact_expectation(g, m)
    rhs = math.fsum(m.mass(a) * w[a] * mean_g for a in atoms)
    assert abs(exact_expectation(lhs, m) - rhs) <= 1e-10


@given(pair=pairs(), data=st.data())
def test_mc_series_agrees_with_enumeration(pair, data):
    # the window lies in lam's support, so f is not 0 on every configuration
    # and the series has a positive stderr
    lam, nu = pair
    window = data.draw(st.one_of(st.none(), st.sets(st.sampled_from(lam.support()), min_size=1)
                                 .map(AtomWindow)))
    f = data.draw(st.sampled_from([void_indicator(window), count_functional(window),
                                   count_squared(window), threshold_indicator(1, window),
                                   threshold_indicator(2, window)]))
    res = variational_series(f, lam, nu, mode="mc", mc=MCPlan(8000, STREAM))
    se = math.sqrt(math.fsum(s * s for s in res.stderrs))
    assert math.isfinite(se) and se > 0.0
    assert abs(res.value - exact_expectation(f, nu)) <= 4.0 * se


@given(pair=pairs())
def test_coupling_has_both_poisson_marginals(pair):
    # per atom, each side's mean count is its Poisson mass within 4 stderrs,
    # and the shared points are points of both configurations
    lam, nu = pair
    atoms, phi_lam, phi_nu, shared = couple_counts(lam, nu, STREAM.generator(), 4000)
    assert np.all(shared <= phi_lam) and np.all(shared <= phi_nu)
    for m, counts in ((lam, phi_lam), (nu, phi_nu)):
        for a, col in zip(atoms, counts.T):
            if m.mass(a) == 0.0:
                assert not col.any()
                continue
            se = col.std() / math.sqrt(col.size)
            assert math.isfinite(se) and se > 0.0
            assert abs(col.mean() - m.mass(a)) <= 4.0 * se
