"""Tests for the sparsity-aware compute engine.

Covers the four engine pillars: bit-identity of the vectorized lowering
against the pre-engine reference, version-tagged effective-weight
caching, density-aware row dispatch (exact where guaranteed, tightly
close elsewhere), and the inference / masked-weight-grad fast paths.
"""

import numpy as np
import pytest

from repro.nn import engine
from repro.nn import functional as F
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.optim import SGD
from repro.nn.parameter import Parameter
from repro.sparse.mask import structured_row_mask


@pytest.fixture(autouse=True)
def _reset_engine():
    saved = engine.get_config().density_threshold
    yield
    engine.configure(density_threshold=saved)


def _sparse_dispatch():
    engine.configure(density_threshold=1.0)


# ----------------------------------------------------------------------
# Lowering bit-identity
# ----------------------------------------------------------------------
LOWERING_CASES = [
    # (n, c, h, w, kernel, stride, pad) spanning the 1x1 shortcut, the
    # loop construction (small C*k*k) and the vectorized one (large).
    (2, 3, 8, 8, 3, 1, 1),
    (2, 3, 9, 9, 3, 2, 1),
    (1, 4, 7, 7, 2, 1, 0),
    (2, 8, 8, 8, 1, 1, 0),
    (2, 8, 8, 8, 1, 2, 0),
    (1, 64, 10, 10, 3, 1, 1),
    (1, 64, 11, 11, 3, 2, 0),
    # Bench-scale ResNet-18 geometries (K = 72, 144, 576).
    (32, 8, 16, 16, 3, 1, 1),
    (32, 16, 8, 8, 3, 2, 1),
    (32, 64, 2, 2, 3, 1, 1),
]


class TestLoweringBitIdentity:
    @pytest.mark.parametrize("case", LOWERING_CASES)
    def test_im2col_matches_reference_exactly(self, rng, case):
        n, c, h, w, k, s, p = case
        x = rng.normal(size=(n, c, h, w)).astype(np.float32)
        got = F.im2col(x, k, k, s, p)
        want = F.im2col_reference(x, k, k, s, p)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", LOWERING_CASES)
    def test_col2im_matches_reference_exactly(self, rng, case):
        n, c, h, w, k, s, p = case
        out_h = F.conv_output_size(h, k, s, p)
        out_w = F.conv_output_size(w, k, s, p)
        col = rng.normal(size=(n * out_h * out_w, c * k * k)).astype(
            np.float32
        )
        got = F.col2im(col, (n, c, h, w), k, k, s, p)
        want = F.col2im_reference(col, (n, c, h, w), k, k, s, p)
        assert np.array_equal(got, want)

    def test_col2im_keeps_the_reference_bytes_with_negative_zeros(
        self, rng
    ):
        n, c, h, w, k, s, p = 2, 8, 6, 6, 3, 1, 1
        col = rng.normal(size=(n * h * w, c * k * k)).astype(np.float32)
        col[:, : k * k] = -0.0  # channel 0 sums -0.0 only: +0.0 out
        col[::3] = -0.0
        got = F.col2im(col, (n, c, h, w), k, k, s, p)
        want = F.col2im_reference(col, (n, c, h, w), k, k, s, p)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", LOWERING_CASES)
    def test_kernel_major_layouts_hold_the_same_patches(self, rng, case):
        n, c, h, w, k, s, p = case
        x = rng.normal(size=(n, c, h, w)).astype(np.float32)
        out_h = F.conv_output_size(h, k, s, p)
        out_w = F.conv_output_size(w, k, s, p)
        km = F.im2col_kernel_major(x, k, k, s, p)
        pm = F.im2col(x, k, k, s, p)
        # (N, K, L) -> (N, L, K) -> (M, K) is the patch-major layout.
        relayout = km.transpose(0, 2, 1).reshape(n * out_h * out_w, -1)
        assert np.array_equal(relayout, pm)

    @pytest.mark.parametrize("case", LOWERING_CASES)
    def test_col2im_kernel_major_is_the_same_adjoint(self, rng, case):
        n, c, h, w, k, s, p = case
        out_h = F.conv_output_size(h, k, s, p)
        out_w = F.conv_output_size(w, k, s, p)
        km = rng.normal(size=(n, c * k * k, out_h * out_w)).astype(
            np.float32
        )
        pm = km.transpose(0, 2, 1).reshape(n * out_h * out_w, -1)
        got = F.col2im_kernel_major(km, (n, c, h, w), k, k, s, p)
        want = F.col2im_reference(pm, (n, c, h, w), k, k, s, p)
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# Effective-weight caching
# ----------------------------------------------------------------------
class TestEffectiveCaching:
    def test_cached_product_is_reused_until_mutation(self, rng):
        param = Parameter(
            rng.normal(size=(4, 4)).astype(np.float32), prunable=True
        )
        param.set_mask(rng.integers(0, 2, size=(4, 4)))
        first = param.effective
        assert param.effective is first  # cache hit, same array object
        np.testing.assert_array_equal(first, param.data * param.mask)

    def test_data_assignment_invalidates(self, rng):
        param = Parameter(np.ones((3, 3), dtype=np.float32))
        param.set_mask(np.eye(3))
        before = param.effective.copy()
        param.data = np.full((3, 3), 2.0, dtype=np.float32)
        np.testing.assert_array_equal(param.effective, 2.0 * np.eye(3))
        assert not np.array_equal(param.effective, before)

    def test_augmented_assignment_invalidates(self):
        param = Parameter(np.ones((2, 2), dtype=np.float32))
        param.set_mask(np.ones((2, 2)))
        assert param.effective.sum() == 4.0
        param.data -= 0.5
        assert param.effective.sum() == 2.0

    def test_mask_assignment_invalidates(self):
        param = Parameter(np.ones((2, 2), dtype=np.float32))
        param.set_mask(np.ones((2, 2)))
        assert param.effective.sum() == 4.0
        param.mask = np.zeros((2, 2), dtype=np.float32)
        assert param.effective.sum() == 0.0
        param.mask = None
        assert param.effective is param.data

    def test_in_place_view_edit_needs_bump(self):
        param = Parameter(np.ones((2, 2), dtype=np.float32))
        param.set_mask(np.ones((2, 2)))
        stale = param.effective
        param.data.reshape(-1)[0] = 5.0  # invisible to the setter
        assert param.effective is stale
        param.bump_version()
        assert param.effective[0, 0] == 5.0

    def test_optimizer_step_invalidates(self, rng):
        layer = Linear(4, 3, rng=rng)
        layer.weight.set_mask(np.ones(layer.weight.shape))
        optimizer = SGD(layer, lr=0.1)
        x = rng.normal(size=(2, 4)).astype(np.float32)
        layer(x)
        layer.backward(np.ones((2, 3), dtype=np.float32))
        before = layer.weight.effective.copy()
        optimizer.step()
        assert not np.array_equal(layer.weight.effective, before)
        np.testing.assert_array_equal(
            layer.weight.effective, layer.weight.data * layer.weight.mask
        )

    def test_active_output_rows_tracks_mask(self):
        param = Parameter(np.ones((4, 6), dtype=np.float32), prunable=True)
        assert param.active_output_rows() is None
        mask = np.zeros((4, 6))
        mask[1, 2] = mask[3, 0] = 1
        param.set_mask(mask)
        np.testing.assert_array_equal(param.active_output_rows(), [1, 3])
        param.set_mask(np.ones((4, 6)))
        assert param.active_output_rows().size == 4


# ----------------------------------------------------------------------
# Density-aware dispatch
# ----------------------------------------------------------------------
def _masked_conv(rng, density, out_channels=8):
    conv = Conv2d(4, out_channels, 3, padding=1, rng=rng)
    mask = structured_row_mask(
        conv.weight.shape, density, np.random.default_rng(3)
    )
    conv.weight.set_mask(mask)
    conv.weight.apply_mask()
    return conv


def _run_step(layer, x, grad_out):
    out = layer(x)
    layer.zero_grad()
    grad_in = layer.backward(grad_out)
    grads = {
        name: p.grad.copy() for name, p in layer.named_parameters()
    }
    return out.copy(), grad_in.copy(), grads


class TestDensityDispatch:
    @pytest.mark.parametrize("density", [0.0, 1.0])
    def test_edge_densities_are_bit_identical(self, rng, density):
        x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        grad = rng.normal(size=(2, 8, 6, 6)).astype(np.float32)
        conv = _masked_conv(np.random.default_rng(1), density)
        engine.configure(density_threshold=0.0)
        dense = _run_step(conv, x, grad)
        _sparse_dispatch()
        sparse = _run_step(conv, x, grad)
        # Outputs and input gradients are exact: at 100% the dispatch
        # falls back to the identical dense kernels, and at 0% both
        # paths produce exact zeros / pure bias.
        assert np.array_equal(dense[0], sparse[0])
        assert np.array_equal(dense[1], sparse[1])
        for name in dense[2]:
            if density == 1.0:
                assert np.array_equal(dense[2][name], sparse[2][name]), name
            else:
                # At 0% the (dense, growth-signal) weight gradient is
                # computed through the batched kernel-major GEMM — the
                # same sums associated differently.
                np.testing.assert_allclose(
                    dense[2][name], sparse[2][name], rtol=1e-5,
                    atol=1e-6, err_msg=name,
                )

    @pytest.mark.parametrize("density", [0.1, 0.25, 0.5])
    def test_intermediate_densities_match_tightly(self, rng, density):
        # Dropping exactly-zero rows is mathematically exact, but the
        # smaller GEMM shapes may re-associate partial sums, so the
        # guarantee at intermediate densities is ULP-level closeness,
        # not byte equality (which is why dispatch is opt-in).
        x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        grad = rng.normal(size=(2, 8, 6, 6)).astype(np.float32)
        conv = _masked_conv(np.random.default_rng(1), density)
        engine.configure(density_threshold=0.0)
        dense = _run_step(conv, x, grad)
        _sparse_dispatch()
        sparse = _run_step(conv, x, grad)
        np.testing.assert_allclose(dense[0], sparse[0], rtol=1e-5,
                                   atol=1e-6)
        np.testing.assert_allclose(dense[1], sparse[1], rtol=1e-5,
                                   atol=1e-6)
        for name in dense[2]:
            np.testing.assert_allclose(
                dense[2][name], sparse[2][name], rtol=1e-5, atol=1e-6,
                err_msg=name,
            )

    def test_pruned_channels_output_exactly_bias(self, rng):
        conv = _masked_conv(np.random.default_rng(1), 0.25)
        conv.bias.data = rng.normal(size=(8,)).astype(np.float32)
        _sparse_dispatch()
        x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        out = conv(x)
        active = set(conv.weight.active_output_rows().tolist())
        for channel in range(8):
            if channel not in active:
                np.testing.assert_array_equal(
                    out[:, channel], conv.bias.data[channel]
                )

    def test_linear_dispatch_matches_dense(self, rng):
        layer = Linear(6, 5, rng=np.random.default_rng(1))
        mask = structured_row_mask(layer.weight.shape, 0.4,
                                   np.random.default_rng(3))
        layer.weight.set_mask(mask)
        layer.weight.apply_mask()
        x = rng.normal(size=(3, 6)).astype(np.float32)
        grad = rng.normal(size=(3, 5)).astype(np.float32)
        engine.configure(density_threshold=0.0)
        dense = _run_step(layer, x, grad)
        _sparse_dispatch()
        sparse = _run_step(layer, x, grad)
        np.testing.assert_allclose(dense[0], sparse[0], rtol=1e-5,
                                   atol=1e-6)
        np.testing.assert_allclose(dense[1], sparse[1], rtol=1e-5,
                                   atol=1e-6)
        for name in dense[2]:
            np.testing.assert_allclose(
                dense[2][name], sparse[2][name], rtol=1e-5, atol=1e-6,
                err_msg=name,
            )

    def test_growth_signal_survives_full_pruning_by_default(self, rng):
        # Paper Eq. 6: gradients at pruned positions are the growth
        # signal; the dispatch must keep them dense unless the caller
        # opted into masked weight grads.
        _sparse_dispatch()
        conv = _masked_conv(np.random.default_rng(1), 0.0)
        x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        out = conv(x)
        conv.backward(np.ones_like(out))
        assert np.abs(conv.weight.grad).sum() > 0.0

    def test_masked_weight_grads_skip_pruned_rows_only(self, rng):
        _sparse_dispatch()
        conv = _masked_conv(np.random.default_rng(1), 0.5)
        x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        grad = rng.normal(size=(2, 8, 6, 6)).astype(np.float32)
        dense = _run_step(conv, x, grad)
        with engine.masked_weight_grads():
            masked = _run_step(conv, x, grad)
        active = conv.weight.active_output_rows()
        pruned = np.setdiff1d(np.arange(8), active)
        assert np.array_equal(
            masked[2]["weight"][pruned], np.zeros_like(
                masked[2]["weight"][pruned])
        )
        np.testing.assert_allclose(
            masked[2]["weight"][active], dense[2]["weight"][active],
            rtol=1e-5, atol=1e-6,
        )
        # Inputs gradients and outputs are untouched by the grad mode.
        np.testing.assert_array_equal(masked[0], dense[0])
        np.testing.assert_array_equal(masked[1], dense[1])

    def test_masked_updates_match_dense_training(self, rng):
        # The masked SGD update (Eq. 5) discards pruned-row gradients,
        # so a training step under masked_weight_grads must produce the
        # same weights as one with dense gradients.
        def train(masked_mode):
            layer = Linear(6, 5, rng=np.random.default_rng(1))
            mask = structured_row_mask(layer.weight.shape, 0.4,
                                       np.random.default_rng(3))
            layer.weight.set_mask(mask)
            layer.weight.apply_mask()
            optimizer = SGD(layer, lr=0.1, momentum=0.9)
            x = np.random.default_rng(5).normal(size=(3, 6)).astype(
                np.float32)
            grad = np.ones((3, 5), dtype=np.float32)
            for _ in range(3):
                if masked_mode:
                    with engine.masked_weight_grads():
                        layer(x)
                        layer.zero_grad()
                        layer.backward(grad)
                else:
                    layer(x)
                    layer.zero_grad()
                    layer.backward(grad)
                optimizer.step()
            return layer.weight.data.copy()

        _sparse_dispatch()
        np.testing.assert_allclose(
            train(True), train(False), rtol=1e-6, atol=1e-7
        )


# ----------------------------------------------------------------------
# Inference fast path and cache lifecycle
# ----------------------------------------------------------------------
def _layer_zoo(rng):
    return [
        (Conv2d(2, 3, 3, padding=1, rng=rng), (2, 2, 6, 6), (2, 3, 6, 6)),
        (Linear(4, 3, rng=rng), (2, 4), (2, 3)),
        (MaxPool2d(2), (2, 2, 6, 6), (2, 2, 3, 3)),
        (AvgPool2d(2), (2, 2, 6, 6), (2, 2, 3, 3)),
        (BatchNorm2d(2), (2, 2, 6, 6), (2, 2, 6, 6)),
        (ReLU(), (2, 2, 6, 6), (2, 2, 6, 6)),
    ]


class TestInferenceAndCaches:
    def test_inference_mode_skips_caches_and_preserves_values(self, rng):
        for layer, in_shape, _ in _layer_zoo(np.random.default_rng(2)):
            x = rng.normal(size=in_shape).astype(np.float32)
            layer.eval()
            reference = layer(x)
            layer.free_caches()
            with engine.inference_mode():
                fast = layer(x)
            np.testing.assert_array_equal(reference, fast)

    def test_backward_after_inference_forward_raises(self, rng):
        for layer, in_shape, out_shape in _layer_zoo(
            np.random.default_rng(2)
        ):
            x = rng.normal(size=in_shape).astype(np.float32)
            with engine.inference_mode():
                layer(x)
            with pytest.raises(RuntimeError):
                layer.backward(np.ones(out_shape, dtype=np.float32))

    def test_second_backward_without_forward_raises(self, rng):
        # Backward must free its cache (peak-memory regression guard).
        for layer, in_shape, out_shape in _layer_zoo(
            np.random.default_rng(2)
        ):
            x = rng.normal(size=in_shape).astype(np.float32)
            layer(x)
            layer.backward(np.ones(out_shape, dtype=np.float32))
            with pytest.raises(RuntimeError):
                layer.backward(np.ones(out_shape, dtype=np.float32))

    def test_free_caches_drops_pending_backward(self, rng):
        for layer, in_shape, out_shape in _layer_zoo(
            np.random.default_rng(2)
        ):
            x = rng.normal(size=in_shape).astype(np.float32)
            layer(x)
            layer.free_caches()
            with pytest.raises(RuntimeError):
                layer.backward(np.ones(out_shape, dtype=np.float32))

    def test_sparse_dispatch_respects_inference_mode(self, rng):
        _sparse_dispatch()
        conv = _masked_conv(np.random.default_rng(1), 0.25)
        x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        with engine.inference_mode():
            conv(x)
        with pytest.raises(RuntimeError):
            conv.backward(np.ones((2, 8, 6, 6), dtype=np.float32))


class TestEngineConfig:
    def test_configure_validates_threshold(self):
        with pytest.raises(ValueError):
            engine.configure(density_threshold=1.5)
        with pytest.raises(ValueError):
            engine.configure(density_threshold=-0.1)

    def test_default_is_dispatch_off(self):
        assert engine.EngineConfig().density_threshold == 0.0

    def test_contexts_nest(self):
        assert engine.caching_enabled()
        with engine.inference_mode():
            with engine.inference_mode():
                assert not engine.caching_enabled()
            assert not engine.caching_enabled()
        assert engine.caching_enabled()
        assert not engine.weight_grads_masked()
        with engine.masked_weight_grads():
            assert engine.weight_grads_masked()
        assert not engine.weight_grads_masked()


class TestEndToEndDispatch:
    def test_density_sweep_run_matches_default_engine(self):
        """A fedtiny run with sparse dispatch enabled must agree with the
        byte-identical default engine on everything discrete (densities,
        byte counters, FLOPs) and track its metrics to float precision.

        The seed-0 byte-identity of the *default* engine against the
        pre-change substrate is pinned separately by
        test_determinism_golden.py.
        """
        from repro.experiments import run_experiment

        kwargs = dict(scale="tiny", pool_size=2, seed=0, rounds=2)
        baseline = run_experiment(
            "fedtiny", "resnet18", "cifar10", 0.1, **kwargs
        )
        engine.configure(density_threshold=1.0)
        dispatched = run_experiment(
            "fedtiny", "resnet18", "cifar10", 0.1, **kwargs
        )
        for base_round, disp_round in zip(
            baseline.rounds, dispatched.rounds
        ):
            assert base_round.density == disp_round.density
            assert base_round.upload_bytes == disp_round.upload_bytes
            assert base_round.download_bytes == disp_round.download_bytes
            assert base_round.train_flops == disp_round.train_flops
            # ULP-level kernel differences compound through SGD, so
            # losses agree only to a small band, not to float precision.
            assert base_round.test_loss == pytest.approx(
                disp_round.test_loss, rel=2e-2
            )
        assert baseline.final_density == dispatched.final_density
        assert baseline.total_comm_bytes == dispatched.total_comm_bytes


class TestMaskedForwardUnmaskedBackward:
    def test_fully_pruned_conv_survives_context_exit(self, rng):
        """The masked-grads decision is recorded at forward time, so a
        backward outside the context must not expect a column matrix the
        forward never built."""
        _sparse_dispatch()
        conv = _masked_conv(np.random.default_rng(1), 0.0)
        x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        with engine.masked_weight_grads():
            out = conv(x)
        grad_in = conv.backward(np.ones_like(out))  # outside the context
        np.testing.assert_array_equal(grad_in, 0.0)
        # The forward skipped the column matrix, so no weight gradient
        # was produced — growth signals require forward outside the
        # masked context.
        np.testing.assert_array_equal(conv.weight.grad, 0.0)
