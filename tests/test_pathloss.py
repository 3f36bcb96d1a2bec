import pytest

from scbsim.pathloss import (
    TABLE2_GOLDEN,
    compute_gains,
    diffuse_applicability_warning,
    largescale_anomalous,
    largescale_diffuse,
    largescale_direct,
    min_ris_overall,
    min_ris_power,
    table2,
)
from scbsim.scenario import ANOMALOUS, DIFFUSE, PER_SYMBOL, ConfigError


def test_direct_law_values():
    assert largescale_direct(100.0, 3.5) == pytest.approx(1e-7, rel=1e-12)
    assert largescale_direct(1.0, 2.7) == 1.0
    assert largescale_direct(200.0, 3.5) == pytest.approx(8.838834764831845e-09, rel=1e-12)


def test_diffuse_law_is_product_of_direct_laws():
    assert largescale_diffuse(80.0, 80.0, 2.2, 2.2) == pytest.approx(
        4.230620380585604e-09, rel=1e-12)
    assert largescale_diffuse(1.0, 1.0, 2.2, 3.1) == 1.0
    for a, b in ((37.0, 120.0), (80.0, 160.0)):
        assert largescale_diffuse(a, b, 2.2, 3.5) == pytest.approx(
            largescale_direct(a, 2.2) * largescale_direct(b, 3.5), rel=1e-13)


def test_anomalous_law_values():
    # equal exponents reduce to the plain sum-distance law
    assert largescale_anomalous(80.0, 80.0, 3.5, 3.5) == pytest.approx(
        1.9301011109426144e-08, rel=1e-12)
    assert largescale_anomalous(80.0, 80.0, 3.5, 3.5) == pytest.approx(
        160.0 ** -3.5, rel=1e-13)
    assert largescale_anomalous(80.0, 80.0, 2.2, 3.5) == pytest.approx(
        (80.0 + 80.0 ** (3.5 / 2.2)) ** -2.2, rel=1e-13)


@pytest.mark.parametrize("alphas,expected", [
    ((3.5, 3.5, 3.5), 1449),
    ((2.2, 3.5, 3.5), 84),
    ((2.2, 2.2, 3.5), 5),
])
def test_min_ris_diffuse_reference_rows(alphas, expected):
    a1, a2, a3 = alphas
    assert min_ris_power(DIFFUSE, 2, 80.0, 80.0, 100.0, a1, a2, a3) == expected


@pytest.mark.parametrize("alphas,expected", [
    ((3.5, 3.5, 3.5), 3),
    ((2.2, 3.5, 3.5), 1),
    ((2.2, 2.2, 3.5), 1),
])
def test_min_ris_anomalous_reference_rows(alphas, expected):
    a1, a2, a3 = alphas
    assert min_ris_power(ANOMALOUS, 2, 80.0, 80.0, 100.0, a1, a2, a3) == expected


def test_table2_matches_golden():
    assert tuple(row[4] for row in table2()) == TABLE2_GOLDEN


def test_table2_monotone_in_exponents():
    rows = table2()
    diffuse = [r[4] for r in rows if r[0] == DIFFUSE]
    anomalous = [r[4] for r in rows if r[0] == ANOMALOUS]
    assert diffuse == sorted(diffuse, reverse=True)
    assert all(d >= a for d, a in zip(diffuse, anomalous))


def test_anomalous_needs_two_elements_when_far(baseline_cfg):
    # equal exponents with d1 + d2 > d_b forces at least two elements for M >= 2
    assert min_ris_power(ANOMALOUS, 2, 80.0, 80.0, 100.0, 3.5, 3.5, 3.5) >= 2
    assert min_ris_power(ANOMALOUS, 3, 60.0, 50.0, 100.0, 2.8, 2.8, 2.8) >= 2


def test_min_ris_overall_baseline(baseline_cfg):
    # worst-user amplitude bound is 5, rank bound M*K*L = 8
    assert min_ris_overall(baseline_cfg) == 8
    anom = baseline_cfg.with_updates(
        ris_scenario=ANOMALOUS, alpha1=3.5, alpha2=3.5,
        d_user=((80.0, 80.0), (80.0, 80.0)),
        d_direct=((100.0, 100.0), (100.0, 100.0)),
    )
    assert min_ris_overall(anom) == 8


def test_min_ris_overall_single_cluster(baseline_cfg):
    cfg = baseline_cfg.with_updates(
        M=1, d_user=((160.0, 80.0),), d_direct=((200.0, 100.0),))
    assert min_ris_overall(cfg) == 1   # nothing to cancel: the engine's system is empty


def test_min_ris_overall_per_symbol(baseline_cfg):
    cfg = baseline_cfg.with_updates(cancellation_mode=PER_SYMBOL)
    assert min_ris_overall(cfg) >= cfg.M * cfg.K * cfg.L


def test_min_ris_overall_never_below_rank_bound(baseline_cfg):
    for L in (1, 2, 3):
        cfg = baseline_cfg.with_updates(L=L)
        assert min_ris_overall(cfg) >= cfg.M * cfg.K * L


@pytest.mark.parametrize("law,args", [
    (largescale_direct, (1e10, 40.0)),                     # underflows to 0
    (largescale_diffuse, (0.5, 80.0, 1100.0, 2.2)),        # overflows
    (largescale_anomalous, (1e-300, 1e-300, 2.0, 2.0)),    # overflows
])
def test_gain_laws_reject_non_finite_gains(law, args):
    with pytest.raises(ConfigError, match="not a finite positive gain"):
        law(*args)


def test_gains_shapes_and_scenario_selection(baseline_cfg):
    g = compute_gains(baseline_cfg)
    assert g.l_direct.shape == (2, 2) and g.l_reflect.shape == (2, 2)
    assert g.l_direct[0, 0] == pytest.approx(200.0 ** -3.5)
    assert g.l_reflect[0, 1] == pytest.approx(largescale_diffuse(80.0, 80.0, 2.2, 2.2))
    anom = compute_gains(baseline_cfg.with_updates(ris_scenario=ANOMALOUS))
    assert anom.l_reflect[0, 1] == pytest.approx(largescale_anomalous(80.0, 80.0, 2.2, 2.2))
    assert ((0 < g.l_direct) & (g.l_direct <= 1)).all()
    assert ((0 < g.l_reflect) & (g.l_reflect <= 1)).all()


def test_diffuse_warning_direction(baseline_cfg):
    assert diffuse_applicability_warning(baseline_cfg) is None
    hostile = baseline_cfg.with_updates(alpha1=3.5)
    assert diffuse_applicability_warning(hostile) is not None
