"""Tests for stochastic error injection."""

import math
import pickle

import numpy as np
import pytest

from qassert import (
    NoiseModel,
    RngStream,
    apply_gate_noise,
    apply_readout_noise,
    ket,
    lower_assertions,
    new_basis_state,
    parse,
    run_shots,
    states_equal_up_to_global_phase,
)

from qassert.measurement import _draw

from helpers import binomial_4sigma


class TestModelValidation:
    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_probabilities_bounded(self, p):
        with pytest.raises(ValueError):
            NoiseModel(gate_flip_p=p)
        with pytest.raises(ValueError):
            NoiseModel(readout_flip_p=p)

    @pytest.mark.parametrize("field, value, message", [
        ("gate_flip_p", None, "must be a real number"),
        ("gate_flip_p", "0.1", "must be a real number"),
        ("gate_flip_p", True, "must be a real number"),
        ("readout_flip_p", False, "must be a real number"),
        ("gate_flip_p", np.True_, "must be a real number"),
        ("readout_flip_p", np.False_, "must be a real number"),
        ("readout_flip_p", 1 + 0j, "must be a real number"),
        ("readout_flip_p", float("nan"), "must be in \\[0, 1\\]"),
        ("depolarizing", "no", "must be a bool"),
        ("depolarizing", 0, "must be a bool"),
        ("depolarizing", None, "must be a bool"),
    ])
    def test_argument_rules(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{field} {message}, got "):
            NoiseModel(**{field: value})

    @pytest.mark.parametrize("p", [0, 1, 0.5, np.float64(0.25), np.float32(0.5)])
    def test_real_probabilities_accepted(self, p):
        assert NoiseModel(gate_flip_p=p, readout_flip_p=p).gate_flip_p == p

    # A numpy integer is a real number, as it is an index everywhere else.
    @pytest.mark.parametrize("p", [np.int64(0), np.int32(1), np.uint8(0)])
    def test_numpy_integer_probabilities_accepted(self, p):
        model = NoiseModel(gate_flip_p=p, readout_flip_p=p)
        assert model.gate_flip_p == model.readout_flip_p == p

    def test_defaults_are_noiseless(self):
        model = NoiseModel()
        assert model.gate_flip_p == 0.0 and model.readout_flip_p == 0.0


class ScriptedStream:
    """A stand-in for `RngStream` that returns the given uniforms in order
    and counts how many it handed out."""

    def __init__(self, *uniforms):
        self.uniforms = uniforms
        self.drawn = 0

    def next_float(self):
        self.drawn += 1
        return self.uniforms[self.drawn - 1]


DEPOLARIZING = NoiseModel(gate_flip_p=0.5, depolarizing=True)


class TestChannels:
    """`NoiseModel`'s compiled channels and the one draw rule, `_draw`."""

    def test_channels_compiled_from_the_fields(self):
        model = NoiseModel(gate_flip_p=0.25, readout_flip_p=0.5)
        assert model.gate_channel == (0.25, (("x", 1.0),))
        assert model.readout_channel == (0.5, (("flip", 1.0),))
        assert DEPOLARIZING.gate_channel == (
            0.5, (("x", 1.0 / 3.0), ("y", 2.0 / 3.0), ("z", 1.0)))

    def test_channels_add_nothing_to_the_model_value(self):
        model = NoiseModel(gate_flip_p=0.1, readout_flip_p=0.2, depolarizing=True)
        assert repr(model) == ("NoiseModel(gate_flip_p=0.1, readout_flip_p=0.2, "
                               "depolarizing=True)")
        same = NoiseModel(0.1, 0.2, True)
        assert model == same and hash(model) == hash(same)
        assert model != NoiseModel(0.1, 0.2)
        copy = pickle.loads(pickle.dumps(model))
        assert copy == model and copy.gate_channel == model.gate_channel
        with pytest.raises(TypeError):
            NoiseModel(gate_channel=(1.0, (("x", 1.0),)))

    @pytest.mark.parametrize("r, event", [
        (math.nextafter(1.0 / 3.0, 0.0), "x"),
        (1.0 / 3.0, "y"),
        (math.nextafter(2.0 / 3.0, 0.0), "y"),
        (2.0 / 3.0, "z"),
        (math.nextafter(1.0, 0.0), "z"),
    ])
    def test_depolarizing_site_picks_its_row_with_a_second_draw(self, r, event):
        stream = ScriptedStream(0.0, r, 0.0)
        assert _draw(DEPOLARIZING.gate_channel, stream) == event
        assert stream.drawn == 2

    @pytest.mark.parametrize("channel, event", [
        (NoiseModel(gate_flip_p=0.5).gate_channel, "x"),
        (NoiseModel(readout_flip_p=0.5).readout_channel, "flip"),
    ])
    def test_one_row_channel_fires_without_a_second_draw(self, channel, event):
        stream = ScriptedStream(math.nextafter(0.5, 0.0), 0.0, 0.0)
        assert _draw(channel, stream) == event
        assert stream.drawn == 1

    @pytest.mark.parametrize("channel", [
        NoiseModel(gate_flip_p=0.5).gate_channel,
        DEPOLARIZING.gate_channel,
        NoiseModel(readout_flip_p=0.5).readout_channel,
    ])
    def test_site_fires_only_below_p(self, channel):
        stream = ScriptedStream(0.5, 0.0)
        assert _draw(channel, stream) is None
        assert stream.drawn == 1

    @pytest.mark.parametrize("channel", [
        NoiseModel(readout_flip_p=0.5).gate_channel,
        NoiseModel(depolarizing=True).gate_channel,
        NoiseModel(gate_flip_p=0.5).readout_channel,
    ])
    def test_channel_that_cannot_fire_draws_nothing(self, channel):
        assert channel is None
        stream = ScriptedStream()
        assert _draw(channel, stream) is None
        assert stream.drawn == 0


def pickled_fields(**fields) -> bytes:
    """A pickle whose state holds only the three fields, as a model pickled
    before the channels existed had."""
    model = object.__new__(NoiseModel)
    model.__dict__.update(fields)
    return pickle.dumps(model)


class TestPickle:
    """An unpickled model is rebuilt from its three fields, like a
    constructed one."""

    def test_pickle_without_channels_loads_and_runs(self):
        fields = dict(gate_flip_p=0.1, readout_flip_p=0.05, depolarizing=True)
        model = pickle.loads(pickled_fields(**fields))
        fresh = NoiseModel(**fields)
        assert model == fresh
        assert (model.gate_channel, model.readout_channel) == (
            fresh.gate_channel, fresh.readout_channel)
        circuit = lower_assertions(parse(TestDrawOrder.BELL))
        assert run_shots(circuit, 200, 3, model) == run_shots(circuit, 200, 3, fresh)

    def test_current_round_trip_compares_equal(self):
        model = NoiseModel(gate_flip_p=0.3, readout_flip_p=0.2)
        copy = pickle.loads(pickle.dumps(model))
        assert copy == model and copy.readout_channel == model.readout_channel

    def test_bad_field_raises_on_load(self):
        blob = pickled_fields(gate_flip_p=2.0, readout_flip_p=0.0, depolarizing=False)
        with pytest.raises(ValueError, match="^gate_flip_p must be in"):
            pickle.loads(blob)


class TestGateNoise:
    def test_zero_probability_is_identity(self):
        rng = RngStream(1)
        st = ket("+0")
        out = apply_gate_noise(st, [0, 1], NoiseModel(), rng)
        assert np.array_equal(out.amps, st.amps)
        # No randomness consumed: the stream continues where it started.
        assert rng.next_u64() == RngStream(1).next_u64()

    def test_certain_flip(self):
        out = apply_gate_noise(
            new_basis_state(1), [0], NoiseModel(gate_flip_p=1.0), RngStream(2)
        )
        assert states_equal_up_to_global_phase(out, ket("1"), 1e-15)

    def test_flip_frequency(self):
        model = NoiseModel(gate_flip_p=0.02)
        n = 100_000
        flips = 0
        zero = new_basis_state(1)
        for i in range(n):
            out = apply_gate_noise(zero, [0], model, RngStream.for_shot(31, i))
            flips += int(abs(out.amps[1]) > 0.5)
        assert abs(flips / n - 0.02) < binomial_4sigma(0.02, n)

    def test_depolarizing_flip_frequency(self):
        # X and Y flip |0>, Z does not: flip rate is 2/3 of the error rate.
        model = NoiseModel(gate_flip_p=1.0, depolarizing=True)
        n = 30_000
        flips = 0
        zero = new_basis_state(1)
        for i in range(n):
            out = apply_gate_noise(zero, [0], model, RngStream.for_shot(77, i))
            flips += int(abs(out.amps[1]) > 0.5)
        assert abs(flips / n - 2 / 3) < binomial_4sigma(2 / 3, n)

    def test_norm_preserved(self):
        model = NoiseModel(gate_flip_p=0.5, depolarizing=True)
        st = ket("+-0")
        for i in range(50):
            out = apply_gate_noise(st, [0, 1, 2], model, RngStream.for_shot(5, i))
            assert abs(np.sum(np.abs(out.amps) ** 2) - 1.0) < 1e-10

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate_noise(ket("0"), [1], NoiseModel(), RngStream(0))


class TestReadoutNoise:
    def test_zero_probability(self):
        rng = RngStream(4)
        assert apply_readout_noise(0, NoiseModel(), rng) == 0
        assert apply_readout_noise(1, NoiseModel(), rng) == 1
        assert rng.next_u64() == RngStream(4).next_u64()  # no draws consumed

    def test_certain_flip(self):
        model = NoiseModel(readout_flip_p=1.0)
        assert apply_readout_noise(0, model, RngStream(0)) == 1
        assert apply_readout_noise(1, model, RngStream(0)) == 0

    def test_flip_frequency(self):
        model = NoiseModel(readout_flip_p=0.03)
        n = 100_000
        flips = sum(
            apply_readout_noise(0, model, RngStream.for_shot(13, i)) for i in range(n)
        )
        assert abs(flips / n - 0.03) < binomial_4sigma(0.03, n)


class TestDrawOrder:
    """The module's draw-order contract, counted over whole runs."""

    # Lowered, this has three measurements and four gates (h, then three
    # cnots) that touch seven qubits in all, so seven noise sites.
    BELL = """\
qubits 2
h 0
cnot 0 1
assert_entangled 0 1 parity 0
measure 0 -> m0
measure 1 -> m1
"""

    @pytest.mark.parametrize("model, per_shot", [
        (None, 3),
        (NoiseModel(gate_flip_p=1e-300), 3 + 7),
        (NoiseModel(gate_flip_p=1.0, depolarizing=True), 3 + 7 + 7),
        (NoiseModel(readout_flip_p=0.5), 3 + 3),
        (NoiseModel(gate_flip_p=1.0, depolarizing=True, readout_flip_p=1e-300), 3 + 7 + 7 + 3),
    ])
    def test_draws_per_shot(self, model, per_shot, monkeypatch):
        draws = 0
        original = RngStream.next_float

        def counting(rng):
            nonlocal draws
            draws += 1
            return original(rng)

        monkeypatch.setattr(RngStream, "next_float", counting)
        stats = run_shots(lower_assertions(parse(self.BELL)), 1000, 5, model)
        assert stats.total_shots == 1000
        assert draws == 1000 * per_shot
