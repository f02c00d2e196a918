"""Subspace projection, ISTA, the unrolled network, and stage-2 training."""
import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import polarce.autodiff as ad
import polarce.optim as optim_mod
import polarce.schemes as schemes_mod
from polarce.channel import (
    SystemConfig, draw_scene, noise_var_for_snr, ris_side_rows, simulate_pilots,
    steering_vector,
)
from polarce.harness import (build_bs_dictionary, build_ris_dictionaries, load_config,
                             phase_schedule)
from polarce.optim import with_precision
from polarce.rng import substream
from polarce.schemes import PipelineContext, _stage1_project, estimate_dncnn_istanet
from polarce.unrolled import (
    _BLOCK, ListaParams, Stage2Config, Stage2Dataset, _path_loss, lista_forward,
    lista_init, make_stage2_dataset, project_to_bs_subspace, reconstruct,
    spectral_norm_sq, stage2_loss, train_stage2,
)

from helpers import assert_grads_close, crandn, ista_core, numeric_grads


class TestProjection:
    def test_zero_observation(self, rng):
        A = crandn(rng, 8, 2)
        P = project_to_bs_subspace(np.zeros((8, 12), dtype=complex), A, 1.0)
        assert P.shape == (12, 2)
        assert np.all(P == 0)

    def test_power_invariance(self, small_system, small_E):
        scene = draw_scene(small_system, substream(2, "proj"))
        A = np.stack([steering_vector(small_system.n_bs, p.angle, p.distance,
                                      small_system.wavelength, small_system.spacing)
                      for p in scene.bridge_bs], axis=1)
        P1 = project_to_bs_subspace(1.0 * (scene.G[0] @ small_E), A, 1.0)
        P4 = project_to_bs_subspace(2.0 * (scene.G[0] @ small_E), A, 4.0)
        np.testing.assert_allclose(P1, P4, rtol=1e-13)

    def test_single_path_recovers_schedule_compression(self, small_system, small_E):
        cfg = SystemConfig(n_bs=8, n_ris=16, tau=12, paths_bs=1, paths_ris=2)
        scene = draw_scene(cfg, substream(3, "proj1"))
        A = np.stack([steering_vector(cfg.n_bs, p.angle, p.distance,
                                      cfg.wavelength, cfg.spacing)
                      for p in scene.bridge_bs], axis=1)
        Y = math.sqrt(cfg.power) * (scene.G[0] @ small_E)
        P = project_to_bs_subspace(Y, A, cfg.power)
        x = ris_side_rows(scene, cfg)
        np.testing.assert_allclose(P, small_E.conj().T @ x, atol=1e-12)

    def test_multipath_residual_bounded_by_gram(self, small_system, small_E):
        scene = draw_scene(small_system, substream(4, "proj2"))
        A = np.stack([steering_vector(small_system.n_bs, p.angle, p.distance,
                                      small_system.wavelength, small_system.spacing)
                      for p in scene.bridge_bs], axis=1)
        Y = math.sqrt(small_system.power) * (scene.G[0] @ small_E)
        P = project_to_bs_subspace(Y, A, small_system.power)
        x = ris_side_rows(scene, small_system)
        gram = A.conj().T @ A
        for l in range(A.shape[1]):
            err = np.linalg.norm(P[:, l] - small_E.conj().T @ x[:, l])
            bound = sum(abs(gram[l, k]) * np.linalg.norm(small_E.conj().T @ x[:, k])
                        for k in range(A.shape[1]) if k != l)
            assert err <= bound + 1e-9


class TestIsta:
    def test_zero_observation_stays_zero(self, rng):
        Psi = crandn(rng, 6, 10)
        res = ista_core(np.zeros(6, dtype=complex), Psi, 0.1, 0.05, 50)
        assert np.all(res.coeffs == 0)
        assert not res.diverged

    def test_objective_monotone_at_safe_step(self, rng):
        Psi = crandn(rng, 8, 12)
        p = crandn(rng, 8)
        kappa = 1.0 / spectral_norm_sq(Psi)
        res = ista_core(p, Psi, 0.1, kappa, 100)
        assert not res.diverged
        diffs = np.diff(res.objective)
        assert np.all(diffs <= 1e-9 * res.objective[:-1] + 1e-12)

    def test_divergence_flag_at_unstable_step(self):
        Psi = np.array([[1.0 + 0.0j]])
        p = np.array([2.0 + 0.0j])
        res = ista_core(p, Psi, 0.0, 3.0, 20)
        assert res.diverged

    def test_orthonormal_dictionary_exact_recovery(self, rng):
        # one active atom, vanishing threshold, orthonormalized dictionary
        Q, _ = np.linalg.qr(crandn(rng, 8, 6))
        amp = 1.3 - 0.7j
        b_true = np.zeros(6, dtype=complex)
        b_true[2] = amp
        p = Q @ b_true
        res = ista_core(p, Q, 1e-9, 1.0 / spectral_norm_sq(Q), 200)
        assert int(np.argmax(np.abs(res.coeffs))) == 2
        assert abs(res.coeffs[2] - amp) < 1e-6
        off = np.delete(np.abs(res.coeffs), 2)
        assert np.max(off) < 1e-6

    def test_spectral_norm_both_orientations(self, rng):
        wide = crandn(rng, 5, 9)
        tall = crandn(rng, 9, 5)
        for A in (wide, tall):
            want = np.linalg.norm(A, 2) ** 2
            assert spectral_norm_sq(A) == pytest.approx(want, rel=1e-9)


class TestListaInit:
    def test_matches_classic_ista_settings(self, small_E, small_cas_dict, rng):
        cfg = Stage2Config(layers=3, probe=4)
        probe = crandn(rng, small_E.shape[1], 6)
        lp = lista_init(small_E, small_cas_dict.F, cfg, probe_P=probe)
        Psi = small_E.conj().T @ small_cas_dict.F
        kappa0 = 1.0 / spectral_norm_sq(Psi)
        np.testing.assert_allclose(lp.kappa, np.full(3, kappa0), rtol=1e-12)
        peaks = np.max(np.abs(Psi.conj().T @ probe), axis=0)
        lam0 = cfg.lam_scale * kappa0 * float(np.mean(peaks))
        np.testing.assert_allclose(lp.lam, np.full(3, lam0), rtol=1e-12)
        np.testing.assert_array_equal(lp.V, small_E)
        assert lp.V is not small_E
        np.testing.assert_array_equal(lp.F, small_cas_dict.F)

    def test_shares_the_dictionary(self, small_E, small_cas_dict):
        """F is the dictionary itself; V is E's own copy."""
        probe = np.zeros((small_E.shape[1], 0), dtype=complex)
        lp = lista_init(small_E, small_cas_dict.F, Stage2Config(layers=2), probe_P=probe)
        assert np.shares_memory(lp.F, small_cas_dict.F)
        assert not np.shares_memory(lp.V, small_E)

    def test_no_probe_gives_zero_threshold(self, small_E, small_cas_dict):
        empty = np.zeros((small_E.shape[1], 0), dtype=complex)
        lp = lista_init(small_E, small_cas_dict.F, Stage2Config(layers=2), probe_P=empty)
        assert np.all(lp.lam == 0.0)


def _random_lista(rng, m, tau, gc, layers, lam=0.05):
    E = np.exp(2j * np.pi * rng.uniform(size=(m, tau)))
    F = crandn(rng, m, gc)
    F /= np.linalg.norm(F, axis=0)
    Psi = E.conj().T @ F
    kappa = 1.0 / spectral_norm_sq(Psi)
    lp = ListaParams(lam=np.full(layers, lam), kappa=np.full(layers, kappa),
                     V=E.copy(), F=F.copy())
    return E, lp


class TestListaForward:
    def test_zero_observation(self, rng):
        E, lp = _random_lista(rng, 10, 6, 13, 3)
        out = lista_forward(np.zeros((6, 4), dtype=complex), lp, E)
        assert out.shape == (10, 4)
        assert np.all(out == 0)

    def test_zero_threshold_is_homogeneous(self, rng):
        E, lp = _random_lista(rng, 10, 6, 13, 3, lam=0.0)
        P = crandn(rng, 6, 2)
        c = 0.8 - 1.7j
        np.testing.assert_allclose(lista_forward(c * P, lp, E),
                                   c * lista_forward(P, lp, E), rtol=1e-11)

    def test_single_layer_hand_expansion(self, rng):
        E, lp = _random_lista(rng, 8, 5, 9, 1)
        p = crandn(rng, 5, 2)
        got = lista_forward(p, lp, E)
        wh = lp.F.conj().T @ lp.V
        coeff = ad.soft_threshold(wh @ (lp.kappa[0] * p), lp.lam[0])
        np.testing.assert_allclose(got, lp.F @ coeff, atol=1e-13)

    def test_orthonormal_synthesis_reduces_to_ista(self, rng):
        # with F^H F = I and V = E the unrolled network is coefficient ISTA
        m, tau, k, layers = 12, 10, 8, 7
        E = np.exp(2j * np.pi * rng.uniform(size=(m, tau)))
        F, _ = np.linalg.qr(crandn(rng, m, k))
        Psi_b = E.conj().T @ F
        kappa = 1.0 / spectral_norm_sq(Psi_b)
        lam = 0.07
        lp = ListaParams(lam=np.full(layers, lam), kappa=np.full(layers, kappa),
                         V=E.copy(), F=F.copy())
        p = crandn(rng, tau)
        got = lista_forward(p[:, None], lp, E)[:, 0]
        res = ista_core(p, Psi_b, lam, kappa, layers, tol=0.0)
        np.testing.assert_allclose(got, F @ res.coeffs, atol=1e-12)

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_init_layers_are_ista_on_overcomplete_dictionary(self, rng, depth):
        # Gc = 3 M: layer t of the untrained net is iteration t of ISTA on E^H F
        E, lp = _random_lista(rng, 12, 8, 36, depth, lam=0.03)
        Psi = E.conj().T @ lp.F
        P = crandn(rng, 8, 3)
        got = lista_forward(P, lp, E)
        for j in range(P.shape[1]):
            res = ista_core(P[:, j], Psi, lp.lam[0], lp.kappa[0], depth, tol=0.0)
            np.testing.assert_allclose(got[:, j], lp.F @ res.coeffs, rtol=0, atol=1e-12)

    def test_untrained_error_does_not_grow_with_depth(self, small_system, small_E,
                                                      small_cas_dict):
        # the synthesis form x <- F soft(F^H ...) diverged here: relative error
        # 0.87, 3.0, 728, 1.65e5 at 1, 2, 4, 6 layers on desk training paths
        scenes = [draw_scene(small_system, substream(61, "depth", t)) for t in range(20)]
        for snr_db in (0.0, 20.0):
            nvs = [noise_var_for_snr(sc, small_system, small_E, snr_db) for sc in scenes]
            ds = make_stage2_dataset(small_system, scenes, small_E, nvs,
                                     substream(61, "depth-noise", str(snr_db)))
            errs = []
            for depth in range(1, 9):
                lp = lista_init(small_E, small_cas_dict.F, Stage2Config(layers=depth),
                                probe_P=ds.P)
                diff = lista_forward(ds.P, lp, small_E) - ds.Xl
                errs.append(np.mean(np.linalg.norm(diff, axis=0) ** 2
                                    / np.linalg.norm(ds.Xl, axis=0) ** 2))
            assert errs[0] < 1.0
            assert np.all(np.diff(errs) <= 0.0), errs

    def test_taped_matches_numpy(self, rng):
        E, lp = _random_lista(rng, 9, 6, 11, 3)
        P = crandn(rng, 6, 4)
        plain = lista_forward(P, lp, E)
        tape = ad.Tape()
        taped = lista_forward(P, lp, E, tape=tape)
        np.testing.assert_array_equal(taped.value, plain)
        assert sorted(tape.trainable.values()) == sorted(["V", "F", "lam", "kappa"])

    def test_taped_gradients_match_finite_differences(self, rng):
        m, tau, gc, layers, batch = 6, 5, 7, 2, 3
        E = np.exp(2j * np.pi * rng.uniform(size=(m, tau)))
        P = crandn(rng, tau, batch) * 0.7
        X = crandn(rng, m, batch)
        w = 1.0 / np.linalg.norm(X, axis=0)         # the per-path loss weights
        F0 = crandn(rng, m, gc)
        F0 /= np.linalg.norm(F0, axis=0)
        arrays = {"V": E * 0.9, "F": F0,
                  "lam": np.array([0.01, 0.015]), "kappa": np.array([0.3, 0.25])}

        def mirror(v):
            psi = E.conj().T @ v["F"]
            wh = v["F"].conj().T @ v["V"]
            b = np.zeros((gc, batch), dtype=complex)
            for t in range(layers):
                step = b + wh @ (v["kappa"][t] * (P - psi @ b))
                assert np.min(np.abs(np.abs(step) - v["lam"][t])) > 1e-4
                b = ad.soft_threshold(step, float(v["lam"][t]))
            x = v["F"] @ b
            return float(np.sum(np.abs((x - X) * w[None, :]) ** 2) / (2 * batch))

        tape = ad.Tape()
        lp = ListaParams(**{k: v.copy() for k, v in arrays.items()})
        loss = _path_loss(lista_forward(P, lp, E, tape=tape), X)
        assert float(loss.value) == pytest.approx(mirror(arrays), rel=1e-12)
        grads = tape.backward(loss)
        want = numeric_grads(mirror, arrays)
        assert_grads_close(grads, want, rtol=2e-5)


    def test_backward_peak_memory(self):
        # Measured: 3.35 F-sized buffers (the F gradient, the quarter-size
        # Psi and W gradients, the quarter-size Psi^H made once per pass, and
        # the half-size [Gc, B] gradient of b plus one soft threshold's
        # temporaries); 3.26 when Psi^H was made afresh in each layer and a
        # contribution added to a view allocated the sum, and 5.43 for the
        # earlier synthesis form when every contribution was a new array and
        # hermitian copied F.
        rng = np.random.default_rng(3)
        E, lp = _random_lista(rng, 64, 16, 2000, 6, lam=0.01)
        P, X = crandn(rng, 16, 32), crandn(rng, 64, 32)
        tape = ad.Tape()
        loss = _path_loss(lista_forward(P, lp, E, tape=tape), X)
        tracemalloc.start()
        try:
            grads = tape.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grads["F"].shape == lp.F.shape
        assert peak <= 3.5 * lp.F.nbytes, f"peak {peak / lp.F.nbytes:.2f} F-sized buffers"

    def test_backward_conjugates_psi_once(self, rng, monkeypatch):
        # Psi^H is made once per backward pass, not once per layer, and W^H is
        # never conjugated back: the hermitian op's input already is W
        E, lp = _random_lista(rng, 12, 6, 40, 4, lam=0.01)
        tape = ad.Tape()
        loss = _path_loss(lista_forward(crandn(rng, 6, 8), lp, E, tape=tape),
                          crandn(rng, 12, 8))
        psi = tape.values[tape.records[0].out]
        wh = tape.values[[r for r in tape.records if r.op == "hermitian"][-1].out]
        made = []
        copy = ad._hermitian_copy

        def spy(a):
            made.append(a)
            return copy(a)

        monkeypatch.setattr(ad, "_hermitian_copy", spy)
        tape.backward(loss)
        assert sum(a is psi for a in made) == 1
        assert not any(a is wh for a in made)

    def test_backward_frees_every_recorded_value(self, rng, monkeypatch):
        # only leaves (parameters and constants) keep their values; every op
        # output, the hermitian ones included, is freed once backward passes it
        leaf_ids = set()
        leaf = ad.Tape.leaf

        def spy(self, *args, **kwargs):
            node = leaf(self, *args, **kwargs)
            leaf_ids.add(node.id)
            return node

        monkeypatch.setattr(ad.Tape, "leaf", spy)
        E, lp = _random_lista(rng, 12, 6, 40, 3, lam=0.01)
        tape = ad.Tape()
        loss = _path_loss(lista_forward(crandn(rng, 6, 4), lp, E, tape=tape),
                          crandn(rng, 12, 4))
        tape.backward(loss)
        assert len(leaf_ids) < len(tape.values)
        assert {i for i, v in enumerate(tape.values) if v is not None} == leaf_ids


class TestStage2Dataset:
    def test_noiseless_exact(self, small_system, small_E):
        scenes = [draw_scene(small_system, substream(41, "s2", t)) for t in range(3)]
        ds = make_stage2_dataset(small_system, scenes, small_E, [0.0] * 3,
                                 substream(41, "s2n"))
        L = small_system.paths_bs
        assert ds.P.shape == (small_system.tau, 3 * L)
        assert ds.Xl.shape == (small_system.n_ris, 3 * L)
        for i, scene in enumerate(scenes):
            rows = ris_side_rows(scene, small_system)
            np.testing.assert_allclose(ds.Xl[:, i * L:(i + 1) * L], rows, atol=1e-14)
            np.testing.assert_allclose(ds.P[:, i * L:(i + 1) * L],
                                       small_E.conj().T @ rows, atol=1e-12)

    def test_noise_variance_scaled_by_power(self, small_E):
        cfg = SystemConfig(n_bs=8, n_ris=16, tau=12, paths_bs=2, paths_ris=2,
                           power=2.0)
        scenes = [draw_scene(cfg, substream(43, "nv", t)) for t in range(60)]
        nv = 0.5
        ds = make_stage2_dataset(cfg, scenes, small_E, [nv] * 60,
                                 substream(43, "nvn"))
        clean = np.concatenate([small_E.conj().T @ ris_side_rows(s, cfg)
                                for s in scenes], axis=1)
        noise = ds.P - clean
        measured = np.mean(np.abs(noise) ** 2)
        assert measured == pytest.approx(nv / cfg.power, rel=0.1)

    def test_deterministic(self, small_system, small_E):
        scenes = [draw_scene(small_system, substream(45, "d", t)) for t in range(2)]
        a = make_stage2_dataset(small_system, scenes, small_E, [0.02] * 2,
                                substream(45, "dn"))
        b = make_stage2_dataset(small_system, scenes, small_E, [0.02] * 2,
                                substream(45, "dn"))
        np.testing.assert_array_equal(a.P, b.P)


class TestReconstruct:
    def test_exact_identity(self, rng):
        A = crandn(rng, 8, 3)
        X = crandn(rng, 16, 3)
        got = reconstruct(A, X)
        want = sum(np.outer(A[:, l], np.conj(X[:, l])) for l in range(3))
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_zero_estimate_gives_unit_nmse(self, rng):
        from polarce.harness import nmse
        G = crandn(rng, 8, 16)
        assert nmse(reconstruct(np.zeros((8, 2), dtype=complex),
                                np.zeros((16, 2), dtype=complex)), G) == 1.0

    def test_single_path_rank_one(self, rng):
        got = reconstruct(crandn(rng, 8, 1), crandn(rng, 16, 1))
        assert np.linalg.matrix_rank(got) == 1


@pytest.fixture(scope="module")
def training_setup(small_system, small_E):
    scenes = [draw_scene(small_system, substream(51, "tr", t))
              for t in range(24)]
    ds = make_stage2_dataset(small_system, scenes, small_E, [0.01] * 24,
                             substream(51, "trn"))
    cfg = Stage2Config(layers=3, lr=1e-3, batch=16, episodes=4, probe=16)
    return ds, cfg


class TestStage2Training:
    def test_improves_on_ista_init(self, training_setup, small_E, small_cas_dict):
        ds, cfg = training_setup
        lp0 = lista_init(small_E, small_cas_dict.F, cfg, probe_P=ds.P[:, :cfg.probe])
        lp, trace = train_stage2(ds, small_E, small_cas_dict.F, cfg, seed=13)
        assert stage2_loss(ds, lp, small_E) < stage2_loss(ds, lp0, small_E)
        assert trace[-1]["loss"] < trace[0]["loss"]
        assert np.all(lp.lam >= 0.0)

    def test_rerun_is_bit_identical(self, training_setup, small_E, small_cas_dict):
        ds, cfg = training_setup
        lp1, tr1 = train_stage2(ds, small_E, small_cas_dict.F, cfg, seed=5)
        lp2, tr2 = train_stage2(ds, small_E, small_cas_dict.F, cfg, seed=5)
        assert tr1 == tr2
        np.testing.assert_array_equal(lp1.lam, lp2.lam)
        np.testing.assert_array_equal(lp1.kappa, lp2.kappa)
        np.testing.assert_array_equal(lp1.V, lp2.V)
        np.testing.assert_array_equal(lp1.F, lp2.F)

    def test_leaves_the_dictionary_as_it_was(self, training_setup, small_E,
                                            small_cas_dict):
        """Training writes into no array it is given, a writable one too."""
        ds, cfg = training_setup
        F = small_cas_dict.F.copy()
        before = hashlib.sha256(F.tobytes()).hexdigest()
        train_stage2(ds, small_E, F, cfg, seed=5)
        assert hashlib.sha256(F.tobytes()).hexdigest() == before

    def test_divergence_raises(self, training_setup, small_E, small_cas_dict):
        ds, _ = training_setup
        wild = Stage2Config(layers=3, lr=1e200, batch=16, episodes=2, probe=16)
        with pytest.raises(RuntimeError):
            with np.errstate(all="ignore"):
                train_stage2(ds, small_E, small_cas_dict.F, wild, seed=0)

    def test_trains_in_single_precision_returns_double(self, training_setup, small_E,
                                                       small_cas_dict, monkeypatch):
        ds, cfg = training_setup
        seen = {}
        step = optim_mod.adam_step

        def spy(params, grads, state):
            for arrays in (params, grads, state.m, state.v):
                for k, a in arrays.items():
                    seen.setdefault(k, set()).add(a.dtype)
            return step(params, grads, state)

        monkeypatch.setattr(optim_mod, "adam_step", spy)
        lp, _ = train_stage2(ds, small_E, small_cas_dict.F, cfg, seed=5)
        f32, c64 = np.dtype(np.float32), np.dtype(np.complex64)
        # Adam's second moment is real for complex parameters
        assert seen == {"lam": {f32}, "kappa": {f32}, "V": {c64, f32}, "F": {c64, f32}}
        assert lp.lam.dtype == lp.kappa.dtype == np.float64
        assert lp.V.dtype == lp.F.dtype == np.complex128

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_zero_target_column_is_weighted_finitely(self, rng, dtype):
        """A zero column's weight is 1/tiny of its precision, never 1/0."""
        X = crandn(rng, 6, 3).astype(dtype)
        X[:, 1] = 0.0
        assert float(_path_loss(X.copy(), X)) == 0.0

    def test_trained_network_narrows_exactly(self, training_setup, small_E, small_cas_dict):
        """Its float64/complex128 fields are float32/complex64 values widened,
        so inference in single precision runs the very network Adam made."""
        ds, cfg = training_setup
        lp, _ = train_stage2(ds, small_E, small_cas_dict.F, cfg, seed=5)
        back = with_precision(with_precision(vars(lp), np.float32), np.float64)
        for name, a in vars(lp).items():
            assert back[name].dtype == a.dtype and back[name].tobytes() == a.tobytes()


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestStage2LossBlocks:
    """An untaped `lista_forward`, and so `stage2_loss`, runs _BLOCK columns at
    a time and gives the bytes of one taped pass."""

    @pytest.mark.parametrize("n, widths", [
        (2 * _BLOCK + 7, [_BLOCK, _BLOCK, 7]),
        (2 * _BLOCK + 1, [_BLOCK, _BLOCK + 1]),
    ], ids=["ragged-tail", "one-column-tail"])
    def test_equals_one_pass_at_desk_size(self, monkeypatch, rng, n, widths):
        cfg = load_config(CONFIGS / "desk.json")
        _, cas = build_ris_dictionaries(cfg)
        tau, m = cfg.system.tau, cfg.system.n_ris
        E = phase_schedule(cfg)
        ds = Stage2Dataset(P=crandn(rng, tau, n), Xl=crandn(rng, m, n))
        lp64 = lista_init(E, cas.F, cfg.stage2, ds.P[:, :cfg.stage2.probe])
        lp32 = ListaParams(**with_precision(vars(lp64), np.float32))
        matmul = ad.matmul
        blocks = []

        def spying(a, b, c=None):
            if a is lp64.F or a is lp32.F:       # the final F b of an untaped pass
                blocks.append(b.shape[1])
            return matmul(a, b, c)

        monkeypatch.setattr(ad, "matmul", spying)
        # complex128 as stage2_loss scores, complex64 as inference runs
        for lp, E_, P in [(lp64, E, ds.P),
                          (lp32, E.astype(np.complex64), ds.P.astype(np.complex64))]:
            one_pass = lista_forward(P, lp, E_, tape=ad.Tape()).value
            blocks.clear()
            got = lista_forward(P, lp, E_)
            assert blocks == widths
            assert got.dtype == one_pass.dtype and got.tobytes() == one_pass.tobytes()
        one_pass = lista_forward(ds.P, lp64, E, tape=ad.Tape()).value
        assert stage2_loss(ds, lp64, E) == float(_path_loss(one_pass, ds.Xl))

    def test_paper_batch_peak_below_one_full_width_array(self, rng):
        # a paper sweep point's paths: one pass over all B columns holds about
        # three [Gc, B] arrays at once (b, the next product and the threshold's
        # float32 temporaries), a blocked one [Gc, _BLOCK] ones
        cfg = load_config(CONFIGS / "paper.json")
        _, cas = build_ris_dictionaries(cfg)
        E = phase_schedule(cfg)
        P = crandn(rng, cfg.system.tau, 200)
        lp = ListaParams(**with_precision(vars(lista_init(E, cas.F, cfg.stage2, P)),
                                          np.float32))
        E, P = E.astype(np.complex64), P.astype(np.complex64)
        full_width = cas.F.shape[1] * P.shape[1] * np.dtype(np.complex64).itemsize
        tracemalloc.start()
        try:
            out = lista_forward(P, lp, E)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (cfg.system.n_ris, 200) and out.dtype == np.complex64
        assert peak < full_width, (f"peak {peak / 1e6:.1f} MB, "
                                   f"one [Gc, B] array {full_width / 1e6:.1f} MB")


class TestSinglePrecisionInference:
    """`estimate_dncnn_istanet` runs the unrolled net in complex64."""

    def test_paper_three_paths_within_1e5_of_double(self, monkeypatch):
        cfg = load_config(CONFIGS / "paper.json")
        system = cfg.system
        assert system.paths_bs == 3
        bs = build_bs_dictionary(cfg)
        _, cas = build_ris_dictionaries(cfg)
        E = phase_schedule(cfg)
        scenes = [draw_scene(system, substream(4, "scene", t)) for t in range(4)]
        nvs = [noise_var_for_snr(sc, system, E, 10.0) for sc in scenes]
        probe = make_stage2_dataset(system, scenes, E, nvs, substream(4, "probe"))
        # at init the net is complex128 proper, the hardest case to narrow
        ctx = PipelineContext(config=system, bs=bs, cas=cas, E=E,
                              stage2=lista_init(E, cas.F, cfg.stage2, probe.P))
        pilots = [simulate_pilots(sc, system, E, nv, substream(4, "noise", t))
                  for t, (sc, nv) in enumerate(zip(scenes, nvs))]
        dtypes = set()

        def recording(P, lp, E, *args, **kwargs):
            dtypes.update(a.dtype for a in (P, E, *vars(lp).values()))
            return lista_forward(P, lp, E, *args, **kwargs)

        monkeypatch.setattr(schemes_mod, "lista_forward", recording)
        got = estimate_dncnn_istanet(pilots, ctx)
        assert dtypes == {np.dtype(np.complex64), np.dtype(np.float32)}
        assert got.dtype == np.complex128
        supports, proj = _stage1_project(pilots, ctx)
        for g, sup, P in zip(got, supports, proj):
            want = reconstruct(sup.A_hat, lista_forward(P, ctx.stage2, E))
            assert np.linalg.norm(g - want) <= 1e-5 * np.linalg.norm(want)
        assert ctx.stage2.F.dtype == np.complex128      # the context keeps its network
