import math

import numpy as np
import pytest

from _oracles import BranchOfMu, PointCurve, mu_along_path, v_at

from isoperiod.curves import BranchConfig, phi_values, require_valid, validate_config
from isoperiod.errors import DegenerateConfig

G1 = BranchConfig(x=[2.0], u=[1.0], real=True)
G2 = BranchConfig(x=[3.0, 5.0], u=[1.0, 4.0], real=True)


def test_validate_ordered_real_config():
    assert validate_config(G1, ordered=True) == []


def test_validate_duplicate_branch_point():
    bad = BranchConfig(x=[1.0], u=[1.0])
    msgs = validate_config(bad)
    assert len(msgs) == 1 and "duplicate" in msgs[0]


def test_validate_permuted_interleaving():
    bad = BranchConfig(x=[3.0, 1.0], u=[2.0, 4.0], real=True)
    assert validate_config(bad) == []
    assert any("ordering" in m for m in validate_config(bad, ordered=True))


def test_validate_zero_collision():
    msgs = validate_config(BranchConfig(x=[2.0], u=[0.0]))
    assert any("duplicate" in m for m in msgs)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_validate_non_finite_reported_alone(bad):
    cfg = BranchConfig(x=[2.0, bad], u=[1.0, 3.0], real=True)
    assert validate_config(cfg) == [f"non-finite branch point x_2 = {complex(bad)}"]
    with pytest.raises(DegenerateConfig, match="non-finite branch point x_2"):
        require_valid(cfg)


def test_validate_real_flag_on_a_complex_point():
    cfg = BranchConfig(x=[2.0 + 1e-3j], u=[1.0], real=True)
    assert validate_config(cfg) == ["real flag set but x_1 = (2+0.001j) is not real"]
    assert validate_config(cfg.replace(x=[2.0 + 1e-12j])) == []    # within the snap threshold


def test_unequal_x_and_u_rejected():
    with pytest.raises(DegenerateConfig, match="^need equally many x and u branch points"):
        BranchConfig(x=[2.0, 3.0], u=[1.0])


def test_point_curve_needs_odd_count():
    with pytest.raises(DegenerateConfig):
        PointCurve((0.0, 1.0))


def test_mu_constant_path_principal_value():
    val = mu_along_path(G1.points, [4.0, 4.0 + 0j])
    assert val == pytest.approx(math.sqrt(24.0), rel=1e-14)


def _loop(center, radius, n=200):
    th = np.linspace(0.0, 2.0 * math.pi, n + 1)
    return center + radius * np.exp(1j * th)


def test_mu_monodromy_single_branch_point_flips():
    loop = _loop(1.0, 0.3)
    start = BranchOfMu(G1.points, loop[0])
    mu0 = start.mu
    end = mu_along_path(G1.points, loop, BranchOfMu(G1.points, loop[0]))
    assert abs(end + mu0) < 1e-10 * abs(mu0)


def test_mu_monodromy_pair_is_trivial():
    loop = _loop(1.5, 1.0)
    mu0 = BranchOfMu(G1.points, loop[0]).mu
    end = mu_along_path(G1.points, loop, BranchOfMu(G1.points, loop[0]))
    assert abs(end - mu0) < 1e-10 * abs(mu0)


@pytest.mark.parametrize("cfg", [G1, G2])
def test_mu_monodromy_each_single_point(cfg):
    for p in cfg.points:
        loop = _loop(complex(p), 0.2)
        mu0 = BranchOfMu(cfg.points, loop[0]).mu
        end = mu_along_path(cfg.points, loop, BranchOfMu(cfg.points, loop[0]))
        assert abs(end + mu0) < 1e-10 * abs(mu0)


def test_phi_at_zero_reference_value():
    # 2 / sqrt((0-1)(0-2)) = sqrt(2)
    assert phi_values(G1.points)[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_phi_squared_scaling_is_exact():
    # under lambda -> c lambda the squared evaluation scales by c^(-2g)
    rng = np.random.default_rng(3)
    for cfg in (G1, G2):
        c = 1.3 + 0.4j
        scaled = BranchConfig(x=tuple(c * v for v in cfg.x),
                              u=tuple(c * v for v in cfg.u))
        f0 = phi_values(cfg.points)
        f1 = phi_values(scaled.points)
        g = cfg.genus
        ratio = (f1 / f0) ** 2
        assert np.allclose(ratio, c ** (-2 * g), rtol=1e-12)


def test_v_duality_identity_matrix():
    g = G2.genus
    M = np.array([[v_at(G2, m, i) for i in range(1, g + 1)]
                  for m in range(1, g + 1)])
    assert np.max(np.abs(M - np.eye(g))) == 0.0


def test_v_at_x_point_matches_direct_formula():
    # m = 1, Q = P_{x_1} on the genus-2 reference configuration
    phis = phi_values(G2.points)
    x1, u = 3.0, np.array([1.0, 4.0])
    direct = phis[3] * (x1 - u[1]) / (phis[1] * (u[0] - u[1]))    # x_1 is point g + 1
    assert v_at(G2, 1, 3) == pytest.approx(direct, rel=1e-14)


def test_real_config_phi_values_pure_real_or_imaginary():
    for cfg in (G1, G2):
        for v in phi_values(cfg.points):
            assert min(abs(v.real), abs(v.imag)) < 1e-12 * abs(v)


def test_degenerate_evaluation_rejected():
    with pytest.raises(DegenerateConfig):
        phi_values(BranchConfig(x=[1.0], u=[1.0]).points)
