"""Property-based tests (hypothesis) for the core numerical invariants.

These tests protect the identities the whole reproduction rests on:

* the broadcasting rules of the autograd engine,
* the im2col/col2im adjoint pair used by every convolution,
* the TCL forward/backward equations (Eq. 8/9),
* the IF neuron's charge conservation and rate-coding identity (Eq. 1-3),
* the hot-path kernels' bit-identity with their textbook references (the
  branch-free IF reset against ``where(V >= thr, V - thr, V)``, the
  tap-view average pooling against the im2col unfold-then-sum, the
  row-padded spike convolution and the one-call batched GEMM against the
  im2col convolution), and the layer-0 current held under real coding
  against recomputing it every timestep,
* the data-normalization invariance of the ANN output (Eq. 5 rescales weights
  but must not change what the network computes, only its scale), and
* the batch-norm folding identity (Eq. 7).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor
from repro.autograd.conv import col2im, im2col
from repro.core import fold_batchnorm
from repro.core.tcl import TrainableClip
from repro.nn import BatchNorm2d
from repro.runtime import PROFILES, BufferPool, ComputePolicy
from repro.serve import AdaptiveConfig, AdaptiveEngine
from repro.snn import (
    IFNeuronPool,
    PoissonCoding,
    RealCoding,
    ResetMode,
    SpikingConv2d,
    SpikingFlatten,
    SpikingNetwork,
    SpikingOutputLayer,
)
from repro.snn.functional import avg_pool2d_raw, conv2d_raw, conv2d_spikes_raw

# Keep hypothesis example counts moderate: every example does real numerics.
COMMON_SETTINGS = settings(max_examples=30, deadline=None)


finite_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


class TestTensorProperties:
    @COMMON_SETTINGS
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=5), elements=finite_floats))
    def test_add_commutative(self, data):
        a = Tensor(data)
        b = Tensor(data * 0.5 + 1.0)
        assert np.allclose((a + b).data, (b + a).data)

    @COMMON_SETTINGS
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6), elements=finite_floats))
    def test_relu_idempotent_and_nonnegative(self, data):
        once = Tensor(data).relu()
        twice = once.relu()
        assert (once.data >= 0).all()
        assert np.array_equal(once.data, twice.data)

    @COMMON_SETTINGS
    @given(
        hnp.arrays(np.float64, (4, 3), elements=finite_floats),
        hnp.arrays(np.float64, (3,), elements=finite_floats),
    )
    def test_broadcast_gradient_shape(self, matrix, vector):
        a = Tensor(matrix, requires_grad=True)
        b = Tensor(vector, requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == matrix.shape
        assert b.grad.shape == vector.shape
        assert np.allclose(b.grad, matrix.sum(axis=0))

    @COMMON_SETTINGS
    @given(hnp.arrays(np.float64, (2, 3), elements=finite_floats))
    def test_sum_then_backward_gives_ones(self, data):
        a = Tensor(data, requires_grad=True)
        a.sum().backward()
        assert np.allclose(a.grad, 1.0)


class TestIm2colProperties:
    @COMMON_SETTINGS
    @given(
        st.integers(min_value=1, max_value=3),  # batch
        st.integers(min_value=1, max_value=3),  # channels
        st.integers(min_value=4, max_value=8),  # spatial
        st.sampled_from([1, 2]),  # stride
        st.sampled_from([0, 1]),  # padding
        st.integers(min_value=0, max_value=1000),
    )
    def test_adjoint_identity(self, n, c, size, stride, padding, seed):
        """<im2col(x), y> == <x, col2im(y)> for random x, y (exact adjointness)."""

        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, size, size))
        cols = im2col(x, 3, stride, padding)
        y = rng.standard_normal(cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, 3, stride, padding)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @COMMON_SETTINGS
    @given(st.integers(min_value=4, max_value=8), st.integers(min_value=0, max_value=100))
    def test_im2col_preserves_values(self, size, seed):
        """Every value of the input appears in the unfolded columns (kernel 1x1)."""

        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 1, size, size))
        cols = im2col(x, 1, 1, 0)
        assert np.allclose(np.sort(cols.ravel()), np.sort(x.ravel()))


class TestTCLProperties:
    @COMMON_SETTINGS
    @given(
        hnp.arrays(np.float64, (10,), elements=st.floats(min_value=0.0, max_value=10.0)),
        st.floats(min_value=0.1, max_value=5.0),
    )
    def test_clip_bounds_output(self, activations, lam):
        """Eq. 8: the output never exceeds λ and never exceeds the input."""

        clip = TrainableClip(initial_lambda=lam)
        out = clip(Tensor(activations)).data
        assert (out <= lam + 1e-12).all()
        assert (out <= activations + 1e-12).all()
        assert (out >= np.minimum(activations, lam) - 1e-12).all()

    @COMMON_SETTINGS
    @given(
        hnp.arrays(np.float64, (10,), elements=st.floats(min_value=0.0, max_value=10.0)),
        st.floats(min_value=0.1, max_value=5.0),
    )
    def test_eq9_gradient_partition(self, activations, lam):
        """Eq. 9: input-gradient and λ-gradient mark complementary element sets."""

        clip = TrainableClip(initial_lambda=lam)
        x = Tensor(activations, requires_grad=True)
        clip(x).sum().backward()
        clipped = activations >= lam
        assert np.allclose(x.grad, (~clipped).astype(float))
        assert clip.lam.grad == pytest.approx(float(clipped.sum()))

    @COMMON_SETTINGS
    @given(st.floats(min_value=0.1, max_value=5.0), st.floats(min_value=0.1, max_value=5.0))
    def test_clip_monotone_in_lambda(self, lam_small, lam_large):
        lo, hi = sorted((lam_small, lam_large))
        values = np.linspace(0.0, 6.0, 25)
        out_lo = TrainableClip(lo)(Tensor(values)).data
        out_hi = TrainableClip(hi)(Tensor(values)).data
        assert (out_lo <= out_hi + 1e-12).all()


class TestIFNeuronProperties:
    @COMMON_SETTINGS
    @given(
        hnp.arrays(np.float64, (30, 1, 4), elements=st.floats(min_value=-0.2, max_value=1.2)),
    )
    def test_charge_conservation_subtract(self, currents):
        """Reset-by-subtraction: membrane + spikes*threshold == Σ input exactly."""

        pool = IFNeuronPool(threshold=1.0, reset_mode=ResetMode.SUBTRACT)
        for z in currents:
            pool.step(z)
        assert np.allclose(pool.membrane + pool.spike_count, currents.sum(axis=0), atol=1e-9)

    @COMMON_SETTINGS
    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=50, max_value=300))
    def test_rate_coding_identity(self, current, timesteps):
        """Constant current z ∈ [0,1] ⇒ |rate - z| ≤ 1/T (the conversion's premise)."""

        pool = IFNeuronPool(threshold=1.0, reset_mode=ResetMode.SUBTRACT)
        total = 0.0
        for _ in range(timesteps):
            total += pool.step(np.array([[current]]))[0, 0]
        assert abs(total / timesteps - min(current, 1.0)) <= 1.0 / timesteps + 1e-9

    @COMMON_SETTINGS
    @given(
        hnp.arrays(np.float64, (20, 1, 3), elements=st.floats(min_value=0.0, max_value=2.0)),
        st.sampled_from([ResetMode.SUBTRACT, ResetMode.ZERO]),
    )
    def test_spikes_are_binary_and_bounded(self, currents, reset_mode):
        pool = IFNeuronPool(threshold=1.0, reset_mode=reset_mode)
        for z in currents:
            spikes = pool.step(z)
            assert set(np.unique(spikes)).issubset({0.0, 1.0})
        assert pool.total_spikes <= currents.shape[0] * currents.shape[1] * currents.shape[2]

    @COMMON_SETTINGS
    @given(hnp.arrays(np.float64, (20, 1, 3), elements=st.floats(min_value=0.0, max_value=2.0)))
    def test_reset_to_zero_never_spikes_more(self, currents):
        """Discarding residual charge can only reduce (or equal) the spike count."""

        subtract = IFNeuronPool(threshold=1.0, reset_mode=ResetMode.SUBTRACT)
        zero = IFNeuronPool(threshold=1.0, reset_mode=ResetMode.ZERO)
        for z in currents:
            subtract.step(z)
            zero.step(z)
        assert zero.total_spikes <= subtract.total_spikes + 1e-9


#: Membrane / spike-lane combinations of the IF step: the three named
#: profiles plus float64 membranes driving an in-place int8 spike lane.
IF_POLICIES = [
    PROFILES["train64"],
    PROFILES["infer32"],
    PROFILES["infer8"],
    ComputePolicy("f64-int8", np.float64, in_place=True, spike_dtype=np.int8),
]


def _special_floats(dtype):
    """Any float of ``dtype`` (subnormals included), often one of the values
    where a reset could leak: signed zeros, infinities, NaN, the smallest
    subnormal, and the thresholds the tests use."""

    info = np.finfo(dtype)
    specials = [-0.0, 0.0, np.inf, -np.inf, np.nan, float(info.smallest_subnormal),
                -float(info.smallest_subnormal), 0.1, 1.0, 7.0]
    return st.one_of(
        st.sampled_from([float(dtype(value)) for value in specials]),
        hnp.from_dtype(np.dtype(dtype), allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )


@st.composite
def _if_case(draw):
    policy = draw(st.sampled_from(IF_POLICIES))
    dtype = policy.dtype.type
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=6))
    membrane = draw(hnp.arrays(dtype, shape, elements=_special_floats(dtype)))
    currents = draw(st.lists(hnp.arrays(dtype, shape, elements=_special_floats(dtype)), min_size=1, max_size=3))
    threshold = draw(st.sampled_from(["1.0", "0.1", "levels"]))
    levels = draw(st.integers(min_value=1, max_value=127))
    return policy, membrane, currents, threshold, levels


class TestKernelEquivalence:
    """The hot-path kernels are bit-identical to their textbook forms."""

    @settings(max_examples=200, deadline=None)
    @given(_if_case())
    # +NaN membrane, -NaN current: the sum's NaN payload depends on the
    # operand order of the add, which IEEE 754 leaves open.
    @example((PROFILES["train64"], np.array([np.nan]), [np.array([-np.nan])], "1.0", 1))
    def test_if_step_equals_textbook_reset(self, case):
        policy, membrane, currents, threshold, levels = case
        if threshold == "levels":
            # Quantized thresholds are whole levels in scale units: a scale
            # of 1/levels snaps threshold 1.0 onto exactly `levels`.
            quantized = ComputePolicy(
                "levels", policy.dtype, in_place=policy.in_place, quantized=True,
                spike_dtype=policy.spike_dtype,
            )
            pool = IFNeuronPool(threshold=1.0, policy=quantized)
            pool.set_quantization(1.0 / levels)
            thr = pool.threshold_q
            assert thr == levels
        else:
            thr = float(threshold)
            pool = IFNeuronPool(threshold=thr, policy=policy)
        pool.membrane = membrane.copy()
        pool.spike_count = policy.zeros(membrane.shape)
        expected_v, expected_count = membrane.copy(), np.zeros_like(membrane)
        for current in currents:
            with np.errstate(invalid="ignore", over="ignore"):
                spikes = pool.step(current)
                # Integrate with the pool's in-place add on the reference's
                # own copy: the reset is the subject, not the NaN payload.
                expected_v += current
                fired = expected_v >= thr
                expected_v = np.where(fired, expected_v - thr, expected_v)
            expected_count += fired
            assert spikes.dtype == policy.spike_dtype
            assert np.array_equal(spikes, fired.astype(policy.spike_dtype))
            assert pool.membrane.dtype == expected_v.dtype
            assert pool.membrane.tobytes() == expected_v.tobytes()
        assert pool.spike_count.tobytes() == expected_count.tobytes()

    @staticmethod
    def _im2col_reference(inputs, kernel_size, stride, accum_dtype):
        """The unfold-then-sum pooling the tap-view kernel replaced."""

        n, c = inputs.shape[:2]
        kh, kw = kernel_size
        cols = im2col(inputs, kernel_size, stride)
        cols = cols.reshape(n, c, kh * kw, -1)
        out = cols[:, :, 0].astype(inputs.dtype if accum_dtype is None else accum_dtype)
        for tap in range(1, kh * kw):
            out += cols[:, :, tap]
        out *= 1.0 / (kh * kw)
        return out

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([((2, 2), 2), ((3, 3), 1), ((2, 3), (1, 2))]),
        st.sampled_from(["float64", "float32", "int8"]),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=4, max_value=9),
        st.integers(min_value=4, max_value=9),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_avg_pool_equals_im2col_reference(self, geometry, lane, n, c, h, w, seed):
        kernel_size, stride = geometry
        rng = np.random.default_rng(seed)
        workspace = BufferPool()
        accum_dtype = np.float32 if lane == "int8" else None
        # Two calls through one workspace: the second reuses every slot.
        for _ in range(2):
            if lane == "int8":
                inputs = (rng.random((n, c, h, w)) < 0.3).astype(np.int8)
            else:
                inputs = rng.standard_normal((n, c, h, w)).astype(lane)
            out = avg_pool2d_raw(inputs, kernel_size, stride, workspace=workspace, accum_dtype=accum_dtype)
            reference = self._im2col_reference(inputs, kernel_size, stride, accum_dtype)
            assert out.shape == (n, c) + reference.shape[2:-1] + out.shape[2:]
            assert out.dtype == reference.dtype
            assert out.reshape(reference.shape).tobytes() == reference.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([1, 2, 3]),  # batch
        st.integers(min_value=1, max_value=4),  # c_in
        st.integers(min_value=1, max_value=5),  # c_out
        st.integers(min_value=3, max_value=9),  # height
        st.integers(min_value=3, max_value=9),  # width
        st.sampled_from([(1, 1), (3, 3), (2, 3), (3, 1)]),  # kernel
        st.sampled_from([0, 1, 2, (0, 1), (2, 0)]),  # padding
        st.booleans(),  # bias
        st.integers(min_value=0, max_value=10_000),
    )
    def test_spike_rows_conv_equals_im2col_reference(
        self, n, c_in, c_out, h, w, kernel, padding, with_bias, seed
    ):
        kh, kw = kernel
        ph, pw = (padding, padding) if isinstance(padding, int) else padding
        if h + 2 * ph < kh or w + 2 * pw < kw:
            return
        rng = np.random.default_rng(seed)
        weight = rng.integers(-127, 128, (c_out, c_in, kh, kw)).astype(np.float32)
        bias = rng.integers(-(2**20), 2**20, c_out).astype(np.int32).astype(np.float32) if with_bias else None
        workspace, reference_workspace = BufferPool(), BufferPool()
        # Two calls through one workspace: the second reuses every slot.
        for _ in range(2):
            spikes = (rng.random((n, c_in, h, w)) < rng.random()).astype(np.int8)
            out = conv2d_spikes_raw(spikes, weight, bias, padding, workspace)
            for reference in (
                conv2d_raw(spikes, weight, bias, 1, padding, accum_dtype=np.float32),
                conv2d_raw(spikes, weight, bias, 1, padding, reference_workspace, np.float32),
            ):
                assert out.shape == reference.shape and out.dtype == reference.dtype
                assert out.tobytes() == reference.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([np.float32, np.float64]),
        st.integers(min_value=1, max_value=5),  # batch
        st.integers(min_value=1, max_value=4),  # c_in
        st.integers(min_value=1, max_value=6),  # c_out
        st.integers(min_value=3, max_value=9),  # spatial
        st.sampled_from([(1, 0), (1, 1), (2, 1)]),  # stride, padding
        st.integers(min_value=0, max_value=10_000),
    )
    def test_one_call_matmul_equals_per_sample_loop(self, dtype, n, c_in, c_out, size, geometry, seed):
        stride, padding = geometry
        rng = np.random.default_rng(seed)
        weight = rng.standard_normal((c_out, c_in, 3, 3)).astype(dtype)
        bias = rng.standard_normal(c_out).astype(dtype)
        inputs = rng.standard_normal((n, c_in, size, size)).astype(dtype)
        out = conv2d_raw(inputs, weight, bias, stride, padding, workspace=BufferPool())
        cols = im2col(inputs, 3, stride, padding)
        reference = np.empty((n, c_out, cols.shape[2]), dtype)
        for sample in range(n):
            np.matmul(weight.reshape(c_out, -1), cols[sample], out=reference[sample])
        reference = reference.reshape(out.shape)
        reference += bias.reshape(1, c_out, 1, 1)
        assert out.tobytes() == reference.tobytes()


class _RecomputedRealCoding(RealCoding):
    """Real coding that does not declare its input constant."""

    constant = False


def _small_network(seed, encoder=None):
    rng = np.random.default_rng(seed)
    return SpikingNetwork(
        [
            SpikingConv2d(rng.standard_normal((4, 2, 3, 3)) * 0.4, rng.standard_normal(4) * 0.05, padding=1),
            SpikingConv2d(rng.standard_normal((4, 4, 3, 3)) * 0.5, rng.standard_normal(4) * 0.05 + 0.05),
            SpikingFlatten(),
            SpikingOutputLayer(rng.standard_normal((3, 64)) * 0.3, rng.standard_normal(3) * 0.1),
        ],
        encoder=encoder,
    )


class TestHeldInputCurrent:
    """Layer 0's current computed once per batch equals recomputing it."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(["train64", "infer32", "infer8"]),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_adaptive_run_matches_recomputed_current(self, profile, n, seed):
        images = np.random.default_rng(seed).uniform(0.0, 1.0, (n, 2, 6, 6))
        config = AdaptiveConfig(max_timesteps=30, min_timesteps=3, stability_window=4)
        held = _small_network(seed).set_policy(profile)
        recomputed = _small_network(seed, _RecomputedRealCoding()).set_policy(profile)
        outcome = AdaptiveEngine(held, config).infer(images)
        reference = AdaptiveEngine(recomputed, config).infer(images)
        assert held.layers[0]._held_current is not None
        assert recomputed.layers[0]._held_current is None
        assert outcome.scores.tobytes() == reference.scores.tobytes()
        assert outcome.exit_timesteps.tolist() == reference.exit_timesteps.tolist()
        assert outcome.total_spikes == reference.total_spikes

    @pytest.mark.parametrize("profile", ["train64", "infer32", "infer8"])
    def test_poisson_coding_is_never_held(self, profile):
        network = _small_network(3, PoissonCoding(gain=0.8, seed=5)).set_policy(profile)
        images = np.random.default_rng(4).uniform(0.0, 1.0, (3, 2, 6, 6))
        network.simulate(images, 12)
        assert not network.layers[0]._holds_input
        assert network.layers[0]._held_current is None

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(["train64", "infer32", "infer8"]), st.integers(min_value=0, max_value=10_000))
    def test_second_run_on_same_array_sees_new_contents(self, profile, seed):
        network = _small_network(seed).set_policy(profile)
        rng = np.random.default_rng(seed)
        # Already in the policy dtype, so the encoder passes the object through.
        images = network.policy.asarray(rng.uniform(0.0, 1.0, (3, 2, 6, 6)))
        network.simulate(images, 12)
        images[...] = rng.uniform(0.0, 1.0, images.shape)
        second = network.simulate(images, 12)
        fresh = _small_network(seed).set_policy(profile).simulate(images.copy(), 12)
        assert second.scores[12].tobytes() == fresh.scores[12].tobytes()
        assert second.total_spikes == fresh.total_spikes


class TestConversionInvariants:
    @COMMON_SETTINGS
    @given(st.integers(min_value=0, max_value=500))
    def test_bn_folding_identity(self, seed):
        """Folded conv ≡ conv followed by eval-mode BN, for random parameters."""

        rng = np.random.default_rng(seed)
        from repro.nn import Conv2d
        from repro.snn import conv2d_raw
        from repro.autograd import no_grad

        conv = Conv2d(2, 3, 3, padding=1, rng=rng)
        bn = BatchNorm2d(3)
        bn.gamma.data[...] = rng.uniform(0.2, 2.0, 3)
        bn.beta.data[...] = rng.standard_normal(3)
        bn.running_mean[...] = rng.standard_normal(3)
        bn.running_var[...] = rng.uniform(0.2, 3.0, 3)
        bn.eval()

        x = rng.standard_normal((2, 2, 5, 5))
        with no_grad():
            reference = bn(conv(Tensor(x))).data
        w, b = fold_batchnorm(conv.weight.data, conv.bias.data, bn)
        assert np.allclose(conv2d_raw(x, w, b, 1, 1), reference, atol=1e-8)

    @COMMON_SETTINGS
    @given(st.floats(min_value=0.5, max_value=4.0), st.integers(min_value=0, max_value=200))
    def test_data_normalization_preserves_argmax(self, lam, seed):
        """Scaling a linear classifier head by any positive norm-factor must not
        change the predicted class (the reason Eq. 5 is safe for readout)."""

        rng = np.random.default_rng(seed)
        weight = rng.standard_normal((5, 8))
        bias = rng.standard_normal(5)
        x = rng.uniform(0.0, 1.0, (7, 8))
        logits = x @ weight.T + bias
        scaled = x @ (weight / lam).T + bias / lam
        assert np.array_equal(logits.argmax(axis=1), scaled.argmax(axis=1))
