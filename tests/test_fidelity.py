"""Fidelity response of calibrated gates to control perturbations."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from bellgate import (
    PARAM_NAMES,
    BlockState,
    GateId,
    Perturbation,
    PhysicalParams,
    assemble_hamiltonian,
    bell_frame,
    build_hamiltonian,
    cnot_family,
    directional_derivatives,
    fidelity_exact,
    fidelity_second_order,
    prescription_targets,
    quadratic_sensitivities,
    rank_parameters,
    sample_states,
    sensitivity_sweep,
    solve_physical,
)

from conftest import random_params

EXACT_UNITY_TOL = 1e-14
SKEW_TOL = 1e-9
DS_ORACLE_TOL = 1e-10
D2S_ORACLE_TOL = 1e-6
CUBIC_RATIO_LO = 6.0
CUBIC_RATIO_HI = 10.0
SCALING_LO = 3.6
SCALING_HI = 4.4
SYMMETRY_TOL = 1e-9

BASE = PhysicalParams(t=1.2, J=(0.7, -0.4, 0.9), B1=0.3, B2=-0.6, h=1)
FRAME = bell_frame(1)


def _state(vec):
    return BlockState.normalized(np.asarray(vec, dtype=complex), FRAME)


def _random_state(rng, frame=FRAME):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return BlockState.normalized(v, frame)


def _random_direction(rng, scale):
    d = rng.normal(size=6)
    return Perturbation(dp=tuple(d * scale / np.linalg.norm(d)))


def test_block_state_requires_normalization():
    with pytest.raises(ValueError):
        BlockState(amplitudes=np.array([1.0, 1.0, 0.0, 0.0], dtype=complex), frame=FRAME)
    with pytest.raises(ValueError):
        BlockState.normalized(np.zeros(4, dtype=complex), FRAME)


def test_block_state_amplitudes_read_only():
    st = _state([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        st.amplitudes[0] = 0.0


def test_perturbation_validation():
    with pytest.raises(ValueError):
        Perturbation(dp=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        Perturbation(dp=(np.nan, 0.0, 0.0, 0.0, 0.0, 0.0))


def test_perturbation_axis_helpers():
    by_name = Perturbation.axis("B1", 1e-3)
    by_index = Perturbation.axis(4, 1e-3)
    assert by_name == by_index
    assert by_name.norm == pytest.approx(1e-3)
    assert Perturbation.axis("t", 2.0).dp == (2.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Perturbation.axis("J4", 1e-3)


def test_directional_derivatives_zero_direction():
    zero = Perturbation(dp=(0.0,) * 6)
    (ds1, ds2), (d2s1, d2s2) = directional_derivatives(BASE, zero, FRAME)
    for m in (ds1, ds2, d2s1, d2s2):
        assert np.max(np.abs(m)) == 0.0


def test_directional_derivatives_against_plain_stencil():
    # independent oracle: generic-purpose expm and an unrefined central
    # difference along the same direction
    def block_map(x):
        hm = assemble_hamiltonian((x[1], x[2], x[3]), x[4], x[5], BASE.h)
        u = scipy.linalg.expm(-1j * x[0] * hm)
        w = FRAME.change_of_basis.conj().T @ u @ FRAME.change_of_basis
        return w[0:2, 0:2], w[2:4, 2:4]

    rng = np.random.default_rng(71)
    x0 = np.array([BASE.t, *BASE.J, BASE.B1, BASE.B2])
    for _ in range(5):
        dp = _random_direction(rng, 3e-3)
        (ds1, ds2), (d2s1, d2s2) = directional_derivatives(BASE, dp, FRAME)
        d = np.array(dp.dp)
        eps = 1e-6 / np.linalg.norm(d)
        hi1, hi2 = block_map(x0 + eps * d)
        lo1, lo2 = block_map(x0 - eps * d)
        mid1, mid2 = block_map(x0)
        assert np.max(np.abs(ds1 - (hi1 - lo1) / (2 * eps))) < DS_ORACLE_TOL
        assert np.max(np.abs(ds2 - (hi2 - lo2) / (2 * eps))) < DS_ORACLE_TOL
        assert np.max(np.abs(d2s1 - (hi1 - 2 * mid1 + lo1) / eps**2)) < D2S_ORACLE_TOL
        assert np.max(np.abs(d2s2 - (hi2 - 2 * mid2 + lo2) / eps**2)) < D2S_ORACLE_TOL


def test_directional_derivatives_scale_with_step():
    # the derivatives are linear and quadratic in the displacement, also
    # far outside the range where the expansion is useful
    rng = np.random.default_rng(72)
    for _ in range(10):
        p = random_params(rng)
        frame = bell_frame(p.h)
        dp = _random_direction(rng, 1.0)
        (u1, u2), (v1, v2) = directional_derivatives(p, dp, frame)
        for k in (1e-6, 1e20):
            big = Perturbation(dp=tuple(k * x for x in dp.dp))
            (ds1, ds2), (d2s1, d2s2) = directional_derivatives(p, big, frame)
            for got, want in ((ds1, k * u1), (ds2, k * u2), (d2s1, k * k * v1), (d2s2, k * k * v2)):
                assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_overlap_generator_is_skew_hermitian():
    # s^dag Ds must be skew-Hermitian because s stays unitary along the path
    rng = np.random.default_rng(73)
    for _ in range(10):
        p = random_params(rng)
        frame = bell_frame(p.h)
        hm = build_hamiltonian(p)
        w = frame.change_of_basis.conj().T @ hm @ frame.change_of_basis
        dp = _random_direction(rng, 1e-3)
        (ds1, ds2), _ = directional_derivatives(p, dp, frame)
        s1 = scipy.linalg.expm(-1j * p.t * w[0:2, 0:2])
        s2 = scipy.linalg.expm(-1j * p.t * w[2:4, 2:4])
        for s, ds in ((s1, ds1), (s2, ds2)):
            g = s.conj().T @ ds
            assert np.max(np.abs(g + g.conj().T)) < SKEW_TOL


def test_unitarity_ties_first_and_second_derivatives():
    # d^2/dl^2 of s^dag s = 0 gives s^dag D2s + 2 Ds^dag Ds + D2s^dag s = 0
    rng = np.random.default_rng(79)
    for i in range(50):
        p = random_params(rng)
        if i % 5 == 0:
            p = replace(p, t=0.0)
        frame = bell_frame(p.h)
        dp = _random_direction(rng, 1.0)
        (ds1, ds2), (d2s1, d2s2) = directional_derivatives(p, dp, frame)
        hm = build_hamiltonian(p)
        w = frame.change_of_basis.conj().T @ hm @ frame.change_of_basis
        for k, ds, d2s in ((0, ds1, d2s1), (2, ds2, d2s2)):
            s = scipy.linalg.expm(-1j * p.t * w[k : k + 2, k : k + 2])
            lhs = s.conj().T @ d2s + 2 * ds.conj().T @ ds + d2s.conj().T @ s
            assert np.max(np.abs(lhs)) < 1e-10


def test_time_derivatives_at_zero_time():
    # at t = 0 the block maps are exp(-i l W_k) along the time axis, so
    # Ds = -i W_k and D2s = -W_k^2 exactly
    rng = np.random.default_rng(80)
    for _ in range(50):
        p = replace(random_params(rng), t=0.0)
        frame = bell_frame(p.h)
        w = frame.change_of_basis.conj().T @ build_hamiltonian(p) @ frame.change_of_basis
        (ds1, ds2), (d2s1, d2s2) = directional_derivatives(p, Perturbation.axis("t", 1.0), frame)
        for k, ds, d2s in ((0, ds1, d2s1), (2, ds2, d2s2)):
            wk = w[k : k + 2, k : k + 2]
            assert np.max(np.abs(ds - (-1j * wk))) < 1e-12
            assert np.max(np.abs(d2s - (-wk @ wk))) < 1e-12


@pytest.mark.parametrize("tag, m, field_scale", [("CNOT_12", 8, 10.0), ("CNOT_21", 4, 3.0)])
def test_quadratic_sensitivities_on_large_field_cards(tag, m, field_scale):
    # large couplings must not degrade the derivatives: the expansion's
    # quadratic coefficients match the exact infidelity over a step small
    # enough that the cubic term is negligible
    p = cnot_family(GateId(tag), m, field_scale).solved
    x = np.array([p.t, *p.J, p.B1, p.B2])
    h = 1e-4 / float(np.max(np.abs(x)))
    for st in sample_states(bell_frame(p.h), n=4, seed=7):
        sens = np.array(quadratic_sensitivities(p, st))
        exact = np.array(
            [(1.0 - fidelity_exact(st, p, Perturbation.axis(i, h))) / h**2 for i in range(6)]
        )
        assert np.max(np.abs(sens - exact)) < 1e-3 * np.max(np.abs(exact))


def test_fidelity_exact_unperturbed_is_unity():
    rng = np.random.default_rng(83)
    zero = Perturbation(dp=(0.0,) * 6)
    for _ in range(10):
        st = _random_state(rng)
        assert abs(fidelity_exact(st, BASE, zero) - 1.0) < EXACT_UNITY_TOL


def test_fidelity_exact_phase_invariance():
    rng = np.random.default_rng(89)
    st = _random_state(rng)
    dp = _random_direction(rng, 5e-3)
    f = fidelity_exact(st, BASE, dp)
    for theta in (0.7, 2.9):
        rotated = BlockState.normalized(np.exp(1j * theta) * st.amplitudes, FRAME)
        assert abs(fidelity_exact(rotated, BASE, dp) - f) < 1e-12


def test_fidelity_exact_stationary_eigenstate():
    # time-only perturbation on a block eigenstate changes only a phase
    hm = build_hamiltonian(BASE)
    w = FRAME.change_of_basis.conj().T @ hm @ FRAME.change_of_basis
    _, evecs = np.linalg.eigh(w[0:2, 0:2])
    st = _state([evecs[0, 0], evecs[1, 0], 0.0, 0.0])
    f = fidelity_exact(st, BASE, Perturbation.axis("t", 5e-2))
    assert abs(f - 1.0) < 1e-12


def test_fidelity_exact_single_block_brute_force():
    # a state confined to one block reduces to a 2x2 overlap
    rng = np.random.default_rng(97)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    st = _state([v[0], v[1], 0.0, 0.0])
    dp = _random_direction(rng, 4e-3)
    shifted = PhysicalParams(
        t=BASE.t + dp.dp[0],
        J=tuple(BASE.J[i] + dp.dp[1 + i] for i in range(3)),
        B1=BASE.B1 + dp.dp[4],
        B2=BASE.B2 + dp.dp[5],
        h=BASE.h,
    )
    cob = FRAME.change_of_basis

    def first_block(p):
        u = scipy.linalg.expm(-1j * p.t * build_hamiltonian(p))
        return (cob.conj().T @ u @ cob)[0:2, 0:2]

    ov = v.conj() @ first_block(BASE).conj().T @ first_block(shifted) @ v
    assert fidelity_exact(st, BASE, dp) == pytest.approx(abs(ov) ** 2, abs=1e-12)


def test_fidelity_second_order_unperturbed_is_unity():
    rng = np.random.default_rng(101)
    st = _random_state(rng)
    assert fidelity_second_order(st, BASE, Perturbation(dp=(0.0,) * 6)) == 1.0


def test_second_order_matches_exact_to_cubic_order():
    rng = np.random.default_rng(107)
    for _ in range(10):
        p = random_params(rng)
        frame = bell_frame(p.h)
        st = _random_state(rng, frame)
        dp = _random_direction(rng, 3e-3)
        half = Perturbation(dp=tuple(x / 2 for x in dp.dp))
        r_full = abs(fidelity_second_order(st, p, dp) - fidelity_exact(st, p, dp))
        r_half = abs(fidelity_second_order(st, p, half) - fidelity_exact(st, p, half))
        if r_full > 1e-12:
            assert CUBIC_RATIO_LO < r_full / r_half < CUBIC_RATIO_HI


def test_infidelity_scales_quadratically():
    rng = np.random.default_rng(109)
    for _ in range(10):
        p = random_params(rng)
        frame = bell_frame(p.h)
        st = _random_state(rng, frame)
        dp = _random_direction(rng, 1e-3)
        double = Perturbation(dp=tuple(2 * x for x in dp.dp))
        lo = 1.0 - fidelity_exact(st, p, dp)
        hi = 1.0 - fidelity_exact(st, p, double)
        if lo > 1e-10:
            assert SCALING_LO < hi / lo < SCALING_HI


def test_field_exchange_symmetry():
    # with equal drives the Hamiltonian commutes with qubit exchange, so
    # an exchange-even state responds identically to either drive; the
    # b11 component is the only odd one in this frame
    p = PhysicalParams(t=1.2, J=(0.7, -0.4, 0.9), B1=0.5, B2=0.5, h=1)
    st = _state([0.6, 0.5, 0.4, 0.0])
    for step in (1e-2, 1e-3):
        e1 = fidelity_exact(st, p, Perturbation.axis("B1", step))
        e2 = fidelity_exact(st, p, Perturbation.axis("B2", step))
        assert abs(e1 - e2) < SYMMETRY_TOL
        s1 = fidelity_second_order(st, p, Perturbation.axis("B1", step))
        s2 = fidelity_second_order(st, p, Perturbation.axis("B2", step))
        assert abs(s1 - s2) < SYMMETRY_TOL


def test_frame_mismatch_rejected():
    st = _state([1.0, 0.0, 0.0, 0.0])
    p2 = PhysicalParams(t=1.0, J=(0.5, 0.0, 0.0), B1=0.0, B2=0.0, h=2)
    with pytest.raises(ValueError):
        fidelity_exact(st, p2, Perturbation(dp=(0.0,) * 6))
    with pytest.raises(ValueError):
        directional_derivatives(p2, Perturbation(dp=(0.0,) * 6), FRAME)


def test_quadratic_sensitivities_definition():
    rng = np.random.default_rng(113)
    st = _random_state(rng)
    step = 1e-3
    sens = quadratic_sensitivities(BASE, st, step=step)
    assert len(sens) == 6
    for i in range(6):
        f2 = fidelity_second_order(st, BASE, Perturbation.axis(i, step))
        assert sens[i] == pytest.approx((1.0 - f2) / step**2, rel=1e-12)


def test_sample_states_deterministic_and_normalized():
    a = sample_states(FRAME, n=16, seed=7)
    b = sample_states(FRAME, n=16, seed=7)
    c = sample_states(FRAME, n=16, seed=8)
    assert len(a) == 16
    for st in a:
        assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12
    assert all(np.array_equal(x.amplitudes, y.amplitudes) for x, y in zip(a, b))
    assert not np.array_equal(a[0].amplitudes, c[0].amplitudes)
    with pytest.raises(ValueError):
        sample_states(FRAME, n=0)


def test_sensitivity_sweep_shape_and_reports():
    card = solve_physical(prescription_targets(GateId("H_q2")))
    frame = bell_frame(card.solved.h)
    states = sample_states(frame, n=2, seed=7)
    grid = [1e-2, 5e-3]
    reports = sensitivity_sweep(card, states, grid)
    assert len(reports) == len(states) * len(PARAM_NAMES) * len(grid)
    for r in reports:
        assert r.param in PARAM_NAMES
        assert len(r.per_parameter_gradient) == 6
        assert 0.0 <= r.f2_exact <= 1.0 + 1e-12
        assert abs(r.f2_second_order - r.f2_exact) < 1e-4


def test_sensitivity_sweep_zero_grid():
    card = solve_physical(prescription_targets(GateId("S_phi_q2", phi=0.4)))
    states = sample_states(bell_frame(card.solved.h), n=2, seed=7)
    for r in sensitivity_sweep(card, states, [0.0]):
        assert r.f2_second_order == 1.0
        assert abs(r.f2_exact - 1.0) < 1e-12


def test_sensitivity_sweep_validation():
    card = solve_physical(prescription_targets(GateId("H_q1")))
    states = sample_states(bell_frame(card.solved.h), n=2, seed=7)
    with pytest.raises(ValueError):
        sensitivity_sweep(card, [], [1e-3])
    with pytest.raises(ValueError):
        sensitivity_sweep(card, states, [])


def test_cubic_residual_shrinks_under_step_halving():
    # along a single axis the cubic coefficient may vanish and leave the
    # quartic term leading, so the admissible ratio band runs from the
    # cubic 8x up to the quartic 16x
    card = solve_physical(prescription_targets(GateId("H_q2")))
    frame = bell_frame(card.solved.h)
    states = sample_states(frame, n=2, seed=7)
    full = sensitivity_sweep(card, states, [8e-3])
    half = sensitivity_sweep(card, states, [4e-3])
    for rf, rh in zip(full, half):
        assert rf.param == rh.param and rf.state_id == rh.state_id
        if rf.cubic_residual > 1e-10:
            assert 5.0 < rf.cubic_residual / rh.cubic_residual < 20.0


def test_rank_parameters():
    card = solve_physical(prescription_targets(GateId("H_q2")))
    states = sample_states(bell_frame(card.solved.h), n=2, seed=7)
    reports = sensitivity_sweep(card, states, [1e-2])
    ranking = rank_parameters(reports)
    assert [name for name, _ in ranking] != []
    assert sorted(name for name, _ in ranking) == sorted(PARAM_NAMES)
    values = [v for _, v in ranking]
    assert values == sorted(values, reverse=True)
    with pytest.raises(ValueError):
        rank_parameters([])
