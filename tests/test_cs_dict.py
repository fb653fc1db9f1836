"""Patching, FISTA sparse coding and dictionary-learning tests."""

import re

import numpy as np
import pytest

from codedlf import coding, cs_dict, scenegen


class TestPatchGrid:
    def test_single_patch_when_atom_fills_source(self):
        dims = (1, 1, 4, 4, 2)
        g = cs_dict.make_patch_grid(dims, dims, (0, 0), (0, 0))
        assert g.n_patches == 1
        t = np.random.default_rng(0).normal(size=dims).astype(np.float32)
        p = cs_dict.patch(t, g)
        assert np.array_equal(p[0], t.ravel())

    def test_production_overlap_tiling(self):
        # (5,5,12,12,13) source, (5,5,8,8,13) atoms, (4,4) spatial and
        # (1,1) angular overlap: spatial origins {0,4} x {0,4}, one angular.
        g = cs_dict.make_patch_grid(
            (5, 5, 12, 12, 13), (5, 5, 8, 8, 13), (4, 4), (1, 1)
        )
        assert g.n_patches == 4
        assert set(g.origins) == {(0, 0, 0, 0), (0, 0, 0, 4), (0, 0, 4, 0), (0, 0, 4, 4)}

    def test_full_coverage(self):
        g = cs_dict.make_patch_grid(
            (5, 5, 12, 12, 13), (5, 5, 8, 8, 13), (4, 4), (1, 1)
        )
        counts = cs_dict.coverage_counts(g)
        assert counts.min() >= 1

    def test_edge_clamp_covers_far_edge(self):
        g = cs_dict.make_patch_grid((1, 1, 10, 7, 2), (1, 1, 4, 4, 2), (1, 1), (0, 0))
        counts = cs_dict.coverage_counts(g)
        assert counts.min() >= 1

    def test_grid_records_the_overlaps_it_uses(self):
        # Overlaps of atom - 1 or more are clamped to atom - 1; the grid
        # records the clamped values, which set the stride of the origins.
        g = cs_dict.make_patch_grid((3, 3, 10, 10, 2), (2, 2, 4, 4, 2), (5, 2), (1, 7))
        assert g.spatial_overlap == (3, 2)
        assert g.angular_overlap == (1, 1)
        assert sorted({o[2] for o in g.origins}) == list(range(7))
        assert sorted({o[3] for o in g.origins}) == [0, 2, 4, 6]
        assert cs_dict.make_patch_grid(
            g.source_dims, g.atom_dims, g.spatial_overlap, g.angular_overlap
        ) == g

    def test_invalid_grids_rejected(self):
        with pytest.raises(ValueError):
            cs_dict.make_patch_grid((1, 1, 4, 4, 3), (1, 1, 4, 4, 2), (0, 0), (0, 0))
        with pytest.raises(ValueError):
            cs_dict.make_patch_grid((1, 1, 4, 4, 2), (1, 1, 5, 4, 2), (0, 0), (0, 0))

    @pytest.mark.parametrize("spatial, angular", [
        ((-1, -1), (0, 0)), ((0, -1), (0, 0)), ((0, 0), (-1, 0)), ((1, 1), (0, -3)),
    ])
    def test_negative_overlap_rejected(self, spatial, angular):
        # A negative overlap gives a stride beyond the atom: the gaps it
        # leaves would have zero coverage and depatch would divide by it.
        with pytest.raises(ValueError, match="overlaps must be >= 0"):
            cs_dict.make_patch_grid((2, 2, 8, 8, 2), (1, 1, 2, 2, 2), spatial, angular)

    def test_every_accepted_grid_covers_the_source(self):
        for source, atom in (
            ((1, 1, 8, 8, 2), (1, 1, 2, 2, 2)),
            ((3, 2, 10, 7, 1), (2, 2, 4, 3, 1)),
            ((5, 5, 9, 9, 3), (3, 5, 4, 9, 3)),
        ):
            for o_s in range(-1, max(atom[2:4]) + 2):
                for o_a in range(-1, max(atom[:2]) + 2):
                    try:
                        g = cs_dict.make_patch_grid(source, atom, (o_s, o_s), (o_a, 0))
                    except ValueError:
                        assert min(o_s, o_a) < 0
                        continue
                    assert cs_dict.coverage_counts(g).min() >= 1


class TestDepatch:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=(3, 3, 10, 10, 4)).astype(np.float32)
        g = cs_dict.make_patch_grid(t.shape, (2, 2, 4, 4, 4), (2, 2), (1, 1))
        back = cs_dict.depatch(cs_dict.patch(t, g), g)
        assert np.abs(back - t).max() <= 1e-6

    def test_zero_tensor_zero_patches(self):
        t = np.zeros((1, 1, 6, 6, 2), dtype=np.float32)
        g = cs_dict.make_patch_grid(t.shape, (1, 1, 3, 3, 2), (1, 1), (0, 0))
        assert np.all(cs_dict.patch(t, g) == 0.0)

    def test_overlap_averaging_midpoint(self):
        # Two patches over (1,1,1,6,1) with atom width 4 and overlap 2:
        # origins t = 0 and 2; disagree on the overlap -> midpoint there.
        g = cs_dict.make_patch_grid((1, 1, 1, 6, 1), (1, 1, 1, 4, 1), (0, 2), (0, 0))
        assert g.n_patches == 2
        eps = 1e-3
        patches = np.stack([np.full(4, 1.0 - eps), np.full(4, 1.0 + eps)])
        out = cs_dict.depatch(patches, g).ravel()
        np.testing.assert_allclose(out[2:4], 1.0, atol=1e-9)
        np.testing.assert_allclose(out[:2], 1.0 - eps, atol=1e-9)
        np.testing.assert_allclose(out[4:], 1.0 + eps, atol=1e-9)

    def test_count_mismatch_rejected(self):
        g = cs_dict.make_patch_grid((1, 1, 1, 6, 1), (1, 1, 1, 4, 1), (0, 2), (0, 0))
        with pytest.raises(ValueError):
            cs_dict.depatch(np.zeros((3, 4)), g)


# _fista caches D z and forms D y from it; the three-GEMM oracle in
# tests/conftest.py forms D y from y.  Codes agree to this relative l2
# tolerance, and training on them to TRAIN_REL_TOL.
FISTA_CODES_REL_TOL = 1e-12
TRAIN_REL_TOL = 1e-12


class TestFista:
    def test_identity_dictionary_soft_threshold(self):
        rng = np.random.default_rng(2)
        d = cs_dict.Dictionary(atoms=np.eye(10))
        x = rng.normal(size=10)
        lam = 0.4
        a = cs_dict.fista_encode(d, x, lam, iters=100)
        expect = np.sign(x) * np.maximum(np.abs(x) - lam / 2.0, 0.0)
        np.testing.assert_allclose(a, expect, atol=1e-6)

    def test_orthonormal_lambda_zero(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
        d = cs_dict.Dictionary(atoms=q)
        x = rng.normal(size=12)
        a = cs_dict.fista_encode(d, x, 0.0, iters=200)
        np.testing.assert_allclose(a, q.T @ x, atol=1e-5)

    def test_objective_not_worse_than_zero_code(self, coding_objective):
        rng = np.random.default_rng(4)
        atoms = rng.normal(size=(16, 32))
        atoms /= np.linalg.norm(atoms, axis=0)
        d = cs_dict.Dictionary(atoms=atoms)
        x = rng.normal(size=16)
        lam = 0.2
        a = cs_dict.fista_encode(d, x, lam, iters=50)
        assert coding_objective(d, x, a, lam) <= float(x @ x)

    def test_fista_beats_ista_at_iteration_50(self, ista_oracle, coding_objective):
        rng = np.random.default_rng(5)
        for _ in range(20):
            atoms = rng.normal(size=(20, 40))
            atoms /= np.linalg.norm(atoms, axis=0)
            d = cs_dict.Dictionary(atoms=atoms)
            x = rng.normal(size=20)
            lam = 0.1
            fa = cs_dict.fista_encode(d, x, lam, iters=50)
            ia = ista_oracle(d, x, lam, iters=50)
            assert coding_objective(d, x, fa, lam) <= coding_objective(d, x, ia, lam) + 1e-12

    @pytest.mark.parametrize("lam", [0.0, 0.05, 0.5])
    def test_training_fista_equals_old_gradient_expression(self, unmasked_fista_oracle, lam):
        # Two GEMMs, with D y the momentum combination of cached products,
        # against the three-GEMM oracle.  They round differently, so at
        # every iteration count the codes agree to FISTA_CODES_REL_TOL
        # (largest seen 2.5e-15), with the same zeros and the same columns
        # restarted in the same iterations.
        rng = np.random.default_rng(6)
        atoms = rng.normal(size=(40, 80))
        atoms /= np.linalg.norm(atoms, axis=0)
        d = cs_dict.Dictionary(atoms=atoms)
        x = rng.normal(size=(40, 16))
        steps = np.array([1.0 / (2.0 * cs_dict.lipschitz_bound(d))])
        for iters in range(61):
            ref, restarted = unmasked_fista_oracle(d, x, lam, iters)
            # training's layout: one group holding every row, patches as rows
            a, da, f, restarts, ran, _ = cs_dict._fista(atoms, x.T[None], None, steps, lam, iters)
            a, da, f, restarts = a[0].T, da[0].T, f[0], restarts[0]
            assert ran == iters
            assert np.linalg.norm(a - ref) <= FISTA_CODES_REL_TOL * np.linalg.norm(ref)
            assert np.array_equal(a == 0, ref == 0)
            assert np.array_equal(restarts, restarted.sum(axis=0))
            # D a and the objective it hands back are those of its codes
            assert np.abs(da - atoms @ a).max() <= 1e-14 * np.abs(x).max()
            r = x - atoms @ a
            f_codes = np.sum(r * r, axis=0) + lam * np.abs(a).sum(axis=0)
            assert np.all(np.abs(f - f_codes) <= 1e-14 * f_codes)

    def test_length_mismatch(self):
        d = cs_dict.Dictionary(atoms=np.eye(4))
        with pytest.raises(ValueError):
            cs_dict.fista_encode(d, np.zeros(5), 0.1, 10)


def _smooth_scenes():
    """30 small random-smooth central views and a grid of 3x3 patches."""
    dims = (1, 1, 6, 6, 2)
    dataset = [
        scenegen.make_scene(
            scenegen.SceneSpec(dims=dims, pattern="random-smooth", seed=s)
        )[0][None, None]
        for s in range(30)
    ]
    return dataset, cs_dict.make_patch_grid(dims, (1, 1, 3, 3, 2), (1, 1), (0, 0))


class TestTraining:
    def test_initial_atoms_unit_norm(self):
        d = cs_dict.init_dictionary(32, 64, seed=0)
        np.testing.assert_allclose(np.linalg.norm(d.atoms, axis=0), 1.0, atol=1e-6)

    def test_atom_norms_after_every_update(self):
        rng = np.random.default_rng(6)
        dims = (1, 1, 4, 4, 2)
        dataset = [rng.normal(size=dims).astype(np.float32) for _ in range(20)]
        g = cs_dict.make_patch_grid(dims, dims, (0, 0), (0, 0))

        norms_seen = []
        orig_norm = cs_dict.Dictionary.normalize

        def spy(self):
            orig_norm(self)
            norms_seen.append(np.linalg.norm(self.atoms, axis=0).copy())

        cs_dict.Dictionary.normalize = spy
        try:
            cs_dict.train_dictionary(
                dataset, g, k=2.0, lam=0.1, lr=0.05, batch_size=8,
                fista_iters=10, epochs=2, seed=3,
            )
        finally:
            cs_dict.Dictionary.normalize = orig_norm
        assert len(norms_seen) > 2
        for n in norms_seen:
            np.testing.assert_allclose(n, 1.0, atol=1e-6)

    def test_zero_learning_rate_keeps_dictionary(self):
        rng = np.random.default_rng(7)
        dims = (1, 1, 4, 4, 2)
        dataset = [rng.normal(size=dims).astype(np.float32) for _ in range(8)]
        g = cs_dict.make_patch_grid(dims, dims, (0, 0), (0, 0))
        d, _ = cs_dict.train_dictionary(
            dataset, g, k=2.0, lam=0.1, lr=0.0, batch_size=4,
            fista_iters=5, epochs=2, seed=3,
        )
        ref = cs_dict.init_dictionary(g.atom_len, d.n_atoms, seed=3)
        np.testing.assert_allclose(d.atoms, ref.atoms, atol=0)

    def test_empty_dataset_rejected(self):
        g = cs_dict.make_patch_grid((1, 1, 4, 4, 2), (1, 1, 4, 4, 2), (0, 0), (0, 0))
        with pytest.raises(ValueError):
            cs_dict.train_dictionary([], g)

    def test_objective_decreases_over_first_epochs(self):
        dataset, g = _smooth_scenes()
        _, rep = cs_dict.train_dictionary(
            dataset, g, k=2.0, lam=0.05, lr=0.05, batch_size=16,
            fista_iters=30, epochs=3, seed=4,
        )
        objs = rep.epoch_objectives
        assert objs[1] < objs[0] and objs[2] < objs[1]

    def test_atoms_that_overflow_raise_in_the_same_epoch(self):
        # The first update overflows and the renormalized atoms are NaN; the
        # next batch's FISTA objective is NaN, so training stops in epoch 0
        # where it used to run every epoch on NaN atoms.
        dataset, g = _smooth_scenes()
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"^FISTA objective is nan at iteration 1$"
        ):
            cs_dict.train_dictionary(
                dataset, g, k=2.0, lam=0.05, lr=1e308, batch_size=16,
                fista_iters=30, epochs=1, seed=4,
            )

    def test_training_matches_oracle_loop(self, dictionary_training_oracle):
        # The set-up above over 10 epochs, against the training loop on the
        # three-GEMM FISTA.  Largest seen: atoms 5.6e-16 and objectives
        # 2.0e-16 relative, restarts equal.  The drift grows with the size of
        # the problem and the epochs: on the dict-fista benchmark set-up it
        # was 9.4e-8 on the atoms after 3 epochs.
        dataset, g = _smooth_scenes()
        knobs = dict(k=2.0, lam=0.05, lr=0.05, batch_size=16, fista_iters=30, epochs=10, seed=4)
        d, rep = cs_dict.train_dictionary(dataset, g, **knobs)
        d_ref, objs_ref, restarts_ref = dictionary_training_oracle(dataset, g, **knobs)
        assert np.linalg.norm(d.atoms - d_ref.atoms) <= TRAIN_REL_TOL * np.linalg.norm(d_ref.atoms)
        assert len(rep.epoch_objectives) == len(objs_ref) == 10
        for obj, ref in zip(rep.epoch_objectives, objs_ref):
            assert abs(obj - ref) <= TRAIN_REL_TOL * ref
        assert rep.restarts == tuple(restarts_ref)
        assert sum(rep.restarts) > 0  # the restart path ran


class TestDictionaryIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        atoms = rng.normal(size=(12, 24)).astype(np.float32).astype(np.float64)
        d = cs_dict.Dictionary(atoms=atoms)
        path = tmp_path / "d.lfdc"
        cs_dict.write_dictionary(d, path)
        back = cs_dict.read_dictionary(path)
        assert back.atom_len == 12 and back.n_atoms == 24
        np.testing.assert_allclose(back.atoms, atoms, atol=0)
        assert path.read_bytes()[:4] == b"LFDC"

    def test_bad_file(self, tmp_path):
        p = tmp_path / "bad.lfdc"
        p.write_bytes(b"XXXX\x00\x00\x00\x00")
        with pytest.raises(ValueError):
            cs_dict.read_dictionary(p)

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw[:6], "incomplete header (6 bytes)"),
        (lambda raw: raw[:-4], "payload holds 380 bytes, need 384"),
        (lambda raw: raw + b"\x00", "1 trailing bytes"),
        (lambda raw: raw[:12] + np.full(96, np.nan, "<f4").tobytes(), "non-finite"),
        (lambda raw: raw[:-4] + np.array([np.inf], "<f4").tobytes(), "non-finite"),
        (lambda raw: raw[:4] + bytes(8), "zero-sized dictionary"),
    ], ids=["short-header", "truncated", "trailing", "all-nan", "one-inf", "zero-sized"])
    def test_malformed_file_rejected(self, tmp_path, edit, message):
        path = tmp_path / "d.lfdc"
        cs_dict.write_dictionary(cs_dict.Dictionary(atoms=np.ones((8, 12))), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match=re.escape(message)):
            cs_dict.read_dictionary(path)

    @pytest.mark.parametrize("atoms, message", [
        (np.ones((8, 0)), "shape (8, 0)"),
        (np.ones((0, 3)), "shape (0, 3)"),
        (np.ones(8), "shape (8,)"),
        (np.full((4, 3), np.nan), "non-finite"),
        (np.full((4, 3), 1e39), "non-finite"),  # finite in float64, inf in float32
    ], ids=["no-atoms", "no-length", "one-axis", "nan", "float32-overflow"])
    def test_writer_refuses_what_reader_rejects(self, tmp_path, atoms, message):
        path = tmp_path / "d.lfdc"
        with pytest.raises(ValueError, match=re.escape(message)):
            cs_dict.write_dictionary(cs_dict.Dictionary(atoms=atoms), path)
        assert not path.exists()


class TestKnobs:
    @pytest.mark.parametrize("knobs, message", [
        ({"k": 0.0}, "k = 0.0 gives 0 atoms"),
        ({"k": float("nan")}, "k = nan gives 0 atoms"),
        ({"lam": float("nan")}, "lam must be finite and >= 0"),
        ({"lam": -0.5}, "lam must be finite and >= 0"),
        ({"lr": float("inf")}, "lr must be finite"),
        ({"batch_size": 0}, "batch_size must be an integer >= 1"),
        ({"batch_size": 2.0}, "batch_size must be an integer >= 1"),
        ({"fista_iters": 0}, "fista_iters must be an integer >= 1"),
        ({"epochs": True}, "epochs must be an integer >= 1"),
        ({"lr": -0.5}, "lr must be finite and >= 0"),
        ({"k": 2.0**27}, "4294967296 atoms for atom length 32; an LFDC file holds fewer"),
    ])
    def test_train_dictionary_rejects_before_patching(self, monkeypatch, knobs, message):
        def no_patch(*args):
            raise AssertionError("patched before the knobs were checked")

        monkeypatch.setattr(cs_dict, "patch", no_patch)
        g = cs_dict.make_patch_grid((1, 1, 4, 4, 2), (1, 1, 4, 4, 2), (0, 0), (0, 0))
        with pytest.raises(ValueError, match=re.escape(message)):
            cs_dict.train_dictionary([np.zeros((1, 1, 4, 4, 2))], g, **knobs)

    def test_largest_atom_count_an_lfdc_file_holds(self):
        assert cs_dict.check_training_knobs(32, (2**32 - 1) / 32, 0.1, 0.1, 16, 10, 1) == 2**32 - 1

    @pytest.mark.parametrize("lam, iters, message", [
        (-1.0, 10, "lam must be finite and >= 0"),
        (float("inf"), 10, "lam must be finite and >= 0"),
        (0.1, -1, "iters must be an integer >= 0"),
        (0.1, 2.5, "iters must be an integer >= 0"),
    ])
    def test_dict_reconstruct_rejects(self, lam, iters, message):
        dims = (1, 1, 4, 4, 2)
        g = cs_dict.make_patch_grid(dims, dims, (0, 0), (0, 0))
        d = cs_dict.init_dictionary(g.atom_len, 2 * g.atom_len, seed=0)
        with pytest.raises(ValueError, match=re.escape(message)):
            cs_dict.dict_reconstruct(np.zeros((1, 1, 4, 4, 1)), np.ones((4, 4, 2)), d, g, lam, iters)


class TestReconstruct:
    def test_representable_signal_all_pass(self):
        # Single-channel (all-pass) coding, atoms = the exact patches,
        # lam = 0: the reconstruction reproduces the field.
        rng = np.random.default_rng(10)
        dims = (1, 1, 4, 4, 1)
        l = rng.uniform(0.2, 0.8, size=dims).astype(np.float32)
        g = cs_dict.make_patch_grid(dims, dims, (0, 0), (0, 0))
        x = cs_dict.patch(l, g)[0]
        atoms = np.stack([x / np.linalg.norm(x), rng.normal(size=x.size)], axis=1)
        atoms[:, 1] /= np.linalg.norm(atoms[:, 1])
        d = cs_dict.Dictionary(atoms=atoms)
        m = coding.random_mask(4, 4, 1, 0)
        lp = coding.project(coding.encode(l, m))
        rec, _ = cs_dict.dict_reconstruct(lp, m, d, g, lam=0.0, iters=400)
        rel = np.linalg.norm((rec - l).ravel()) / np.linalg.norm(l.ravel())
        assert rel <= 1e-4

    def test_zero_measurement_zero_reconstruction(self):
        dims = (1, 1, 4, 4, 2)
        g = cs_dict.make_patch_grid(dims, dims, (0, 0), (0, 0))
        d = cs_dict.init_dictionary(g.atom_len, 2 * g.atom_len, seed=1)
        m = coding.random_mask(4, 4, 2, 5)
        lp = np.zeros((1, 1, 4, 4, 1), dtype=np.float32)
        rec, _ = cs_dict.dict_reconstruct(lp, m, d, g, lam=0.1, iters=50)
        assert np.all(rec == 0.0)

    def test_masked_data_consistency_on_scene(self):
        spec = scenegen.SceneSpec(
            dims=(5, 5, 16, 16, 5), pattern="random-smooth",
            disparity_profile="linear-ramp", disparity_params=(-0.5, 0.5), seed=11,
        )
        cv, disp = scenegen.make_scene(spec)
        l = scenegen.render_lightfield(cv, disp, 5, 5)
        m = coding.random_mask(16, 16, 5, seed=4)
        coded = coding.encode(l, m)
        lp = coding.project(coded)
        g = cs_dict.make_patch_grid(l.shape, (2, 2, 4, 4, 5), (1, 1), (0, 0))
        d, _ = cs_dict.train_dictionary(
            [l], g, k=2.0, lam=0.05, lr=0.05, batch_size=16,
            fista_iters=25, epochs=2, seed=2,
        )
        rec, _ = cs_dict.dict_reconstruct(lp, m, d, g, lam=1e-5, iters=300)
        mrec = coding.encode(rec, m)
        consistency = np.linalg.norm((mrec - coded).ravel()) / np.linalg.norm(
            coded.ravel()
        )
        assert consistency <= 1e-3


# Observed-row solve against the full-height masked FISTA oracle
# (tests/conftest.py), which takes the same per-patch steps and stop rule:
# the two sum in different orders, so they agree to these tolerances rather
# than bit for bit, and run the same number of iterations.
REC_ABS_TOL = 1e-6  # float32 reconstruction, max abs difference
CODES_REL_TOL = 1e-7  # codes, relative l2 (Frobenius) difference
OBJECTIVE_REL_TOL = 1e-9  # final masked objective, per patch

# (source dims, atom dims, spatial overlap, angular overlap, iterations)
ORACLE_CASES = {
    "zero-iters": ((3, 3, 8, 8, 5), (2, 2, 4, 4, 5), (1, 1), (0, 0), 0),
    "all-pass": ((3, 3, 8, 8, 1), (2, 2, 4, 4, 1), (2, 2), (0, 0), 60),
    "angular-overlap": ((3, 3, 8, 8, 4), (2, 2, 4, 4, 4), (2, 2), (1, 1), 80),
    "clamped-origin": ((1, 1, 9, 8, 3), (1, 1, 4, 4, 3), (1, 1), (0, 0), 80),
    "single-patch": ((1, 1, 4, 4, 2), (1, 1, 4, 4, 2), (0, 0), (0, 0), 80),
    "benchmark-scene": ((5, 5, 16, 16, 5), (2, 2, 4, 4, 5), (1, 1), (0, 0), 300),
}
LAM = 3e-3


def _coded_case(dims, atom, spatial, angular, seed=0):
    """A rendered scene, its projected coded measurement, the mask, the
    grid and a dictionary trained for one epoch on the scene."""
    u, v, s, t, c = dims
    cv, disp = scenegen.make_scene(scenegen.SceneSpec(
        dims=dims, pattern="random-smooth", disparity_profile="linear-ramp",
        disparity_params=(-0.3, 0.7), seed=300 + seed,
    ))
    l = scenegen.render_lightfield(cv, disp, u, v)
    m = coding.random_mask(s, t, c, seed=seed + 1)
    lp = coding.project(coding.encode(l, m))
    g = cs_dict.make_patch_grid(dims, atom, spatial, angular)
    d, _ = cs_dict.train_dictionary(
        [l], g, k=2.0, lam=0.2, lr=0.3, batch_size=16, fista_iters=20, epochs=1, seed=seed,
    )
    return lp, m, g, d


class TestObservedRowSolve:
    def test_groups_share_origin_rows_and_size(self):
        dims = (5, 5, 16, 16, 5)
        g = cs_dict.make_patch_grid(dims, (2, 2, 4, 4, 5), (1, 1), (0, 0))
        m = coding.random_mask(16, 16, 5, seed=3)
        cols, rows = cs_dict._spatial_groups(g, m)
        assert cols.shape == (25, 9) and rows.shape == (25, 64)
        assert sorted(cols.ravel()) == list(range(g.n_patches))
        masks = cs_dict.patch(np.broadcast_to(m[None, None], dims), g)
        for members, kept in zip(cols, rows):
            assert len({g.origins[i][2:] for i in members}) == 1
            for i in members:
                assert np.array_equal(np.flatnonzero(masks[i]), kept)

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_full_height_oracle(self, masked_dict_oracle, case):
        dims, atom, spatial, angular, iters = ORACLE_CASES[case]
        lp, m, g, d = _coded_case(dims, atom, spatial, angular)
        rec_ref, a_ref, f_ref, iters_ref, lips_ref = masked_dict_oracle(lp, m, d, g, LAM, iters)
        rec, rep = cs_dict.dict_reconstruct(lp, m, d, g, LAM, iters)
        a, f, rep_codes = cs_dict._masked_codes(coding.lift(lp, m), m, d, g, LAM, iters)
        assert rep == rep_codes
        assert rec.dtype == np.float32 and rec.shape == dims
        assert np.abs(rec - rec_ref).max() <= REC_ABS_TOL
        if iters == 0:
            assert not a.any() and not rec.any()
        assert np.linalg.norm(a - a_ref) <= CODES_REL_TOL * np.linalg.norm(a_ref)
        assert np.all(np.abs(f - f_ref) <= OBJECTIVE_REL_TOL * f_ref)
        assert rep.iterations == iters_ref <= iters
        if case == "benchmark-scene":
            assert rep.iterations < iters  # the stop rule fired
        assert rep.lipschitz_bound == lips_ref.max()
        assert rep.step == 1.0 / (2.0 * rep.lipschitz_bound)
        assert rep.final_objective == pytest.approx(f.sum(), rel=1e-12)

    def test_group_steps_within_dense_bound(self):
        # Each group steps by 1/(2 L(D_m)), L(D_m) from the small Gram
        # D_m D_m^T; it may not exceed the bound that a dense eigvalsh of
        # D_m^T D_m gives (up to 1e-12 relative for rounding), and no group
        # steps shorter than the global step 1/(2 L(D)).
        dims, atom, spatial, angular, _ = ORACLE_CASES["angular-overlap"]
        _, m, g, d = _coded_case(dims, atom, spatial, angular)
        _, rows = cs_dict._spatial_groups(g, m)
        steps = 1.0 / (2.0 * cs_dict._group_lipschitz(d.atoms, rows))
        lip_d = np.linalg.eigvalsh(d.atoms.T @ d.atoms)[-1]
        for step, kept in zip(steps, rows):
            lip_m = np.linalg.eigvalsh(d.atoms[kept].T @ d.atoms[kept])[-1]
            assert step <= (1.0 + 1e-12) / (2.0 * lip_m)
            assert step >= 1.0 / (2.0 * lip_m) * (1.0 - 1e-12)
            assert step >= (1.0 - 1e-12) / (2.0 * lip_d)

    def test_stop_never_fires_on_a_restart_iteration(self, monkeypatch):
        # Trace the summed objective and the restarts without the stop
        # rule, find a restart iteration whose relative decrease is below
        # that of every earlier iteration, and set the stop's tolerance
        # between the two: the solve must run past that iteration and stop
        # at the first later non-restart iteration that meets the tolerance.
        dims, atom, spatial, angular, _ = ORACLE_CASES["clamped-origin"]
        lp, m, g, d = _coded_case(dims, atom, spatial, angular)
        lifted = coding.lift(lp, m)
        monkeypatch.setattr(cs_dict, "STOP_REL_DECREASE", None)
        runs = [cs_dict._masked_codes(lifted, m, d, g, LAM, n)[2] for n in range(41)]
        assert all(r.iterations == n for n, r in enumerate(runs))
        objective = np.array([r.final_objective for r in runs])
        ratio = (objective[:-1] - objective[1:]) / objective[1:]  # ratio[i]: iteration i + 1
        restarted = np.diff([r.restarts for r in runs]) > 0
        first = np.flatnonzero(restarted & (np.minimum.accumulate(ratio) == ratio))
        assert first.size, "no restart iteration decreases least so far"
        j = first[0]
        tol = np.sqrt(ratio[j] * ratio[:j].min())
        expected = next(i for i in range(j + 1, 40) if not restarted[i] and ratio[i] <= tol) + 1
        monkeypatch.setattr(cs_dict, "STOP_REL_DECREASE", tol)
        rep = cs_dict._masked_codes(lifted, m, d, g, LAM, 300)[2]
        assert rep.iterations == expected > j + 1

    def test_each_patch_objective_non_increasing(self):
        # clamped-origin restarts at LAM within 40 iterations
        dims, atom, spatial, angular, _ = ORACLE_CASES["clamped-origin"]
        lp, m, g, d = _coded_case(dims, atom, spatial, angular)
        lifted = coding.lift(lp, m)
        x = cs_dict.patch(lifted, g).T
        masks = cs_dict.patch(np.broadcast_to(m[None, None], dims), g).T
        previous = None
        for iters in range(41):
            a, f, rep = cs_dict._masked_codes(lifted, m, d, g, LAM, iters)
            # the objective the solver keeps is that of its codes
            r = masks * (x - d.atoms @ a)
            recomputed = np.sum(r * r, axis=0) + LAM * np.abs(a).sum(axis=0)
            assert np.all(np.abs(f - recomputed) <= OBJECTIVE_REL_TOL * recomputed)
            if previous is not None:
                assert np.all(f <= previous), f"objective rose at iteration {iters}"
            previous = f
        assert rep.restarts > 0  # the restart path ran
