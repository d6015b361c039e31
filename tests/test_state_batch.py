"""Sampled states as one batch, held to the states built one by one.

sample_states returns a StateBatch, and a sweep takes nothing else.
The reference here is the list of BlockState objects that the
documented draw gives row by row, each checked on its own.  Stacked
into a batch of their own, they must sweep to every SweepResult column
byte for byte: hypothesis draws the state count, the seed and the step
grid, on published, shifted and family cards.  The batch's rows,
slices and checks are held to the same list.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellgate import (
    BlockState,
    GateId,
    StateBatch,
    bell_frame,
    prescription_targets,
    sample_states,
    sensitivity_sweep,
    solve_physical,
)
from bellgate.calib import PrescriptionCard

from conftest import drawn_card, drawn_step

COLUMNS = ("f2_exact", "f2_second_order", "cubic_residual", "gradient")


def _listed(frame, n, seed):
    """The states of sample_states(frame, n, seed) as a list, each row built and checked as a BlockState."""
    z = np.random.default_rng(seed).standard_normal((n, 8))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return [BlockState(z[k, :4] + 1j * z[k, 4:], frame) for k in range(n)]


def _stacked(states):
    """The states of a list as a batch of their own, built and checked by StateBatch."""
    return StateBatch(np.array([state.amplitudes for state in states]), states[0].frame)


def _bits(result):
    return [(getattr(result, name).shape, getattr(result, name).tobytes()) for name in COLUMNS]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_batch_sweeps_the_bits_of_its_states_stacked(data):
    card = PrescriptionCard.from_doc(data.draw(drawn_card()))
    n = data.draw(st.integers(1, 200))
    seed = data.draw(st.integers(0, 2**32 - 1))
    grid = data.draw(st.lists(drawn_step(card.solved.t), min_size=1, max_size=3))
    frame = bell_frame(card.solved.h)
    batch = sample_states(frame, n, seed)
    listed = _listed(frame, n, seed)
    assert isinstance(batch, StateBatch) and len(batch) == n
    assert batch.amplitudes.tobytes() == np.array([s.amplitudes for s in listed]).tobytes()
    assert _bits(sensitivity_sweep(card, batch, grid)) == _bits(sensitivity_sweep(card, _stacked(listed), grid))


def test_rows_are_read_only_views_built_on_each_read():
    frame = bell_frame(3)
    batch = sample_states(frame, 50, 11)
    listed = _listed(frame, 50, 11)
    for k in (0, 1, 17, 49, -1, -50, np.int64(3)):
        state = batch[k]
        assert isinstance(state, BlockState) and state.frame is frame
        assert state.amplitudes.tobytes() == listed[k].amplitudes.tobytes()
        assert state.amplitudes.shape == (4,)
        assert np.shares_memory(state.amplitudes, batch.amplitudes)
        # no cache: every read is a new view of the same row
        again = batch[k % 50]
        assert again is not state and again.amplitudes.tobytes() == state.amplitudes.tobytes()
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
        with pytest.raises(ValueError):
            state.amplitudes.flags.writeable = True
    for a in (batch.amplitudes, batch.bloch):
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
    assert [s.amplitudes.tobytes() for s in batch] == [s.amplitudes.tobytes() for s in listed]
    for k in (50, -51):
        with pytest.raises(IndexError):
            batch[k]
    for k in ("0", 1.0, None, (0, 1)):
        with pytest.raises(TypeError):
            batch[k]
    # the three fields are all a batch holds
    assert sorted(vars(batch)) == ["amplitudes", "bloch", "frame"]


def _close(a, b):
    """Equal up to the rounding of the products: within 1e-12 of the larger column's scale."""
    scale = max(np.abs(a).max(), np.abs(b).max(), 1.0)
    return a.shape == b.shape and np.abs(a - b).max() <= 1e-12 * scale


@pytest.mark.parametrize("k", [slice(0, 1), slice(3, 40), slice(None, None, 3), slice(-5, None), slice(60, 2, -4)])
def test_a_slice_is_a_batch_of_the_same_rows(k):
    card = solve_physical(prescription_targets(GateId("S_phi_q2", phi=0.4)))
    batch = sample_states(bell_frame(card.solved.h), 64, 7)
    rows = list(range(64))[k]
    part = batch[k]
    assert isinstance(part, StateBatch) and part.frame is batch.frame and len(part) == len(rows)
    assert part.amplitudes.tobytes() == batch.amplitudes[rows].tobytes()
    assert part.bloch.tobytes() == batch.bloch[rows].tobytes()
    assert [state.amplitudes.tobytes() for state in part] == [batch[i].amplitudes.tobytes() for i in rows]
    grid = [1e-2, -5e-3]
    swept = sensitivity_sweep(card, part, grid)
    assert _bits(swept) == _bits(sensitivity_sweep(card, _stacked([batch[i] for i in rows]), grid))
    # BLAS picks its kernel by the number of rows, so a row's last bits may
    # depend on how many states share the product
    full = sensitivity_sweep(card, batch, grid)
    assert all(_close(getattr(swept, name), getattr(full, name)[rows]) for name in COLUMNS)


def test_the_sweep_takes_a_batch_and_keeps_its_refusals_in_order():
    card = solve_physical(prescription_targets(GateId("H_q2")))
    frame = bell_frame(card.solved.h)
    other = bell_frame(3)
    assert (frame.h, other.h) == (1, 3)
    state = BlockState.normalized([1.0, 0.0, 0.0, 0.0], frame)
    # anything but a batch is refused first, whatever its rows and the grid
    for states, name in (
        ([state], "list"),
        ([], "list"),
        ((state,), "tuple"),
        (state, "BlockState"),
        (sample_states(frame, 2, 7).amplitudes, "ndarray"),
        (iter(sample_states(frame, 2, 7)), "generator"),
    ):
        for grid in ([1e-3], [], ["x"]):
            with pytest.raises(TypeError) as info:
                sensitivity_sweep(card, states, grid)
            assert str(info.value) == f"sensitivity sweep takes a StateBatch, got {name}"

    mismatch = "state frame h=3 does not match parameter h=1"
    cases = [
        (sample_states(frame, 4, 7)[2:2], [1e-3], "sensitivity sweep needs at least one state"),
        (sample_states(other, 4, 7)[:0], [], "sensitivity sweep needs at least one state"),
        (sample_states(other, 4, 7), [], "sensitivity sweep needs a nonempty step grid"),
        (sample_states(other, 4, 7), [1e-3], mismatch),
        (sample_states(other, 4, 7)[1:2], [1e-3], mismatch),
    ]
    for states, grid, message in cases:
        with pytest.raises(ValueError) as info:
            sensitivity_sweep(card, states, grid)
        assert str(info.value) == message


def test_a_batch_checks_every_row_as_a_state():
    frame = bell_frame(1)
    good = sample_states(frame, 3, 5).amplitudes
    with pytest.raises(TypeError, match="expected a BellFrame, got int"):
        StateBatch(good, 1)
    for shape in ((4,), (3, 2), (2, 2, 4)):
        with pytest.raises(ValueError, match=r"state batch needs \(n, 4\) amplitudes"):
            StateBatch(np.ones(shape), frame)
    # rows within the norm tolerance pass; the first bad row fails with
    # its first fault, in BlockState's words
    near = good * np.array([[1.0 + 0.9e-12], [1.0 - 0.9e-12], [1.0]])
    assert StateBatch(near, frame).amplitudes.tobytes() == near.tobytes()
    for bad in (1, 2):
        rows = good.copy()
        rows[bad] *= 2.0
        rows[3 - bad] = np.inf
        with pytest.raises(ValueError) as want:
            BlockState(rows[1], frame)
        with pytest.raises(ValueError) as info:
            StateBatch(rows, frame)
        assert str(info.value) == str(want.value)
    # a caller's array is copied, not frozen or shared
    batch = StateBatch(good.copy(), frame)
    assert batch.amplitudes.tobytes() == good.tobytes() and not batch.amplitudes.flags.writeable
    assert len(StateBatch(np.empty((0, 4)), frame)) == 0


@pytest.mark.parametrize("build", [BlockState, lambda amps, frame: StateBatch(amps[None], frame)],
                         ids=["BlockState", "StateBatch"])
@pytest.mark.parametrize("value", [1e200, -1e155j, 1.5e308])
def test_finite_amplitudes_whose_norm_overflows_are_refused_without_a_warning(build, value):
    # numpy's overflow warning in the norm used to come first, and under
    # warnings-as-errors it was what the caller saw
    amps = np.full(4, value, dtype=np.complex128)
    with pytest.raises(ValueError, match=r"^state norm is inf, expected 1$"):
        build(amps, bell_frame(1))
