"""Patching, FISTA sparse coding and dictionary-learning tests."""

import re
import warnings

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
        # Overlaps of atom - 1 or more are clamped to atom - 1, and the
        # clamped values set the stride of the origins: the grid is the one
        # the clamped overlaps give.
        g = cs_dict.make_patch_grid((3, 3, 10, 10, 2), (2, 2, 4, 4, 2), (5, 2), (1, 7))
        assert sorted({o[2] for o in g.origins}) == list(range(7))
        assert sorted({o[3] for o in g.origins}) == [0, 2, 4, 6]
        assert cs_dict.make_patch_grid(g.source_dims, g.atom_dims, (3, 2), (1, 1)) == g

    def test_invalid_grids_rejected(self):
        with pytest.raises(ValueError):
            cs_dict.make_patch_grid((1, 1, 4, 4, 3), (1, 1, 4, 4, 2), (0, 0), (0, 0))
        with pytest.raises(ValueError):
            cs_dict.make_patch_grid((1, 1, 4, 4, 2), (1, 1, 5, 4, 2), (0, 0), (0, 0))

    @pytest.mark.parametrize("source, atom, message", [
        ((1, 1, 4, 4, 2), (1, 1, 0, 4, 2), "atom extent must be an integer >= 1, got 0"),
        ((1, 1, 0, 4, 2), (1, 1, 0, 4, 2), "source extent must be an integer >= 1, got 0"),
        ((1, 1, 4, 4, 2), (1, 1, 2, 2.0, 2), "atom extent must be an integer >= 1, got 2.0"),
        ((1, 1, 4, 4, 2), (1, 1, 2, 2, 2, 1), "atom dims must have 5 entries"),
        ((4, 4, 2), (1, 1, 2), "source dims must have 5 entries"),
    ])
    def test_malformed_shapes_rejected(self, source, atom, message):
        # A zero extent used to give atom_len 0 and zero coverage, so that
        # depatch(patch(t, g), g) divided by zero; a sixth atom entry failed
        # only in patch, with "too many values to unpack".
        with pytest.raises(ValueError, match=re.escape(message)):
            cs_dict.make_patch_grid(source, atom, (0, 0), (0, 0))

    @pytest.mark.parametrize("spatial, angular, message", [
        ((1,), (0, 0), "2 entries each, got spatial (1,)"),
        ((1, 1), (0, 0, 0), "2 entries each, got spatial (1, 1)"),
        ((1.5, 1), (0, 0), "overlap must be an integer >= 0, got 1.5"),
        ((1, 1), (True, 0), "overlap must be an integer >= 0, got True"),
    ])
    def test_malformed_overlaps_rejected(self, spatial, angular, message):
        # Other lengths used to give 3- or 5-entry origins, which failed only
        # in patch; a float overlap was truncated and a bool taken as 1.
        with pytest.raises(ValueError, match=re.escape(message)):
            cs_dict.make_patch_grid((2, 2, 6, 6, 2), (1, 1, 3, 3, 2), spatial, angular)

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


# (source dims, atom dims, spatial overlap, angular overlap)
GEOMETRY_CASES = {
    "clamped-origin": ((1, 1, 9, 8, 3), (1, 1, 4, 4, 3), (1, 1), (0, 0)),
    "zero-overlap": ((3, 3, 8, 8, 5), (1, 1, 4, 4, 5), (0, 0), (0, 0)),
    "single-patch": ((2, 3, 4, 5, 2), (2, 3, 4, 5, 2), (0, 0), (0, 0)),
    "angular-overlap": ((3, 3, 10, 10, 4), (2, 2, 4, 4, 4), (2, 2), (1, 1)),
    "odd-sizes": ((3, 5, 11, 7, 3), (2, 3, 5, 3, 3), (2, 1), (1, 2)),
    "benchmark": ((5, 5, 16, 16, 5), (2, 2, 4, 4, 5), (1, 1), (0, 0)),
}


@pytest.mark.parametrize("case", list(GEOMETRY_CASES))
def test_index_geometry_equals_origin_loops(patch_oracles, case):
    # patch, coverage_counts, depatch and _spatial_groups read
    # PatchGrid.index; the loops over the origins they replace are the
    # oracles.  Each agrees bit for bit.
    ref_patch, ref_counts, ref_depatch, ref_groups = patch_oracles
    source, atom, spatial, angular = GEOMETRY_CASES[case]
    g = cs_dict.make_patch_grid(source, atom, spatial, angular)
    rng = np.random.default_rng(len(case))
    t = rng.normal(size=source).astype(np.float32)
    p = cs_dict.patch(t, g)
    assert p.dtype == np.float64 and np.array_equal(p, ref_patch(t, g))
    counts = cs_dict.coverage_counts(g)
    assert counts.dtype == np.int64 and np.array_equal(counts, ref_counts(g))
    # Half the entries are +-2**60, which absorb the small ones or cancel
    # depending on where they fall in the sum, so the float32 result shows
    # the order in which each element's patches are added.
    big = rng.choice([-(2.0**60), 2.0**60], size=p.shape)
    mixed = np.where(rng.random(p.shape) < 0.5, big, rng.normal(size=p.shape))
    for patches in (p, rng.normal(size=p.shape), mixed):
        out, ref = cs_dict.depatch(patches, g), ref_depatch(patches, g)
        assert out.dtype == np.float32
        assert np.array_equal(out.view(np.uint32), ref.view(np.uint32))
    m = coding.random_mask(*source[2:], seed=len(case))
    cols, rows = cs_dict._spatial_groups(g, m)
    cols_ref, rows_ref = ref_groups(g, m)
    assert np.array_equal(cols, cols_ref) and np.array_equal(rows, rows_ref)
    assert cols.dtype == cols_ref.dtype and rows.shape == rows_ref.shape


def test_index_is_cached_and_not_a_field():
    g = cs_dict.make_patch_grid((1, 1, 6, 6, 2), (1, 1, 3, 3, 2), (1, 1), (0, 0))
    assert g.index is g.index and g.index.shape == (g.n_patches, g.atom_len)
    # grids compare and hash by their fields, with or without the index built
    twin = cs_dict.make_patch_grid((1, 1, 6, 6, 2), (1, 1, 3, 3, 2), (1, 1), (0, 0))
    assert twin == g and hash(twin) == hash(g)


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


# _fista runs in float32 (state and GEMMs), caches D z and forms D y from
# it; the three-GEMM oracle in tests/conftest.py runs in float64 and forms
# D y from y.  Relative l2 distance of the codes (largest seen 4.6e-6 on
# the tested seed 6, 5.0e-6 on seeds 6-9), and the distance of the
# kernel's D a and objective from those recomputed in float64 from its
# codes, relative to max|x| (4.9e-7) and to each patch's objective at the
# zero code (6.9e-8).
FISTA_CODES_REL_TOL = 2e-5
FISTA_PRODUCT_REL_TOL = 2e-6
# Training runs the kernel in float32 (float32 atoms), the oracle in
# float64.  Atoms and epoch objectives agree to this relative tolerance
# (largest seen 1.5e-7 on the tested seed 4, 3.9e-7 on seeds 4-7).
TRAIN_REL_TOL = 1e-6
# Per batch of the dict-fista benchmark set-up, the float32 kernel against
# the float64 three-GEMM oracle on the same atoms and step: relative l2
# distance of the codes, and relative distance of each patch's objective.
BATCH_CODES_REL_TOL = 3e-5
BATCH_OBJECTIVE_REL_TOL = 1e-5
# Training's power iterations end this close (relative) below the largest
# eigenvalue.
POWER_REL_TOL = 1e-5


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
        # Two float32 GEMMs, with D y the momentum combination of cached
        # products, against the three-GEMM float64 oracle.  At every
        # iteration count the codes agree to FISTA_CODES_REL_TOL, and the
        # same columns restart in the same iterations.  An entry that is
        # zero in one and not in the other lies within that distance of
        # the threshold (one seen, 4.1e-8 against codes up to 2.9).
        rng = np.random.default_rng(6)
        atoms = rng.normal(size=(40, 80))
        atoms /= np.linalg.norm(atoms, axis=0)
        d = cs_dict.Dictionary(atoms=atoms)
        x = rng.normal(size=(40, 16))
        # the oracle's step: 1/(2 L), L the exact eigenvalue
        steps = np.array([1.0 / (2.0 * np.linalg.eigvalsh(atoms @ atoms.T)[-1])])
        for iters in range(61):
            ref, restarted = unmasked_fista_oracle(d, x, lam, iters)
            # training's layout: one group holding every row, patches as rows
            a, da, f, restarts, ran, _ = cs_dict._fista(
                atoms.astype(np.float32)[None], x.T[None], steps, lam, iters,
            )
            a, da, f, restarts = a[0].T, da[0].T, f[0], restarts[0]
            assert ran == iters
            assert np.linalg.norm(a - ref) <= FISTA_CODES_REL_TOL * np.linalg.norm(ref)
            flipped = (a == 0) != (ref == 0)
            assert np.all(np.abs(a - ref)[flipped] <= FISTA_CODES_REL_TOL * np.abs(ref).max())
            assert np.array_equal(restarts, restarted.sum(axis=0))
            # D a and the objective it hands back are those of its codes
            assert np.abs(da - atoms @ a).max() <= FISTA_PRODUCT_REL_TOL * np.abs(x).max()
            r = x - atoms @ a
            f_codes = np.sum(r * r, axis=0) + lam * np.abs(a).sum(axis=0)
            assert np.all(np.abs(f - f_codes) <= FISTA_PRODUCT_REL_TOL * np.sum(x * x, axis=0))

    def test_codes_do_not_depend_on_the_scale_of_the_data(self):
        # The one group of training and fista_encode: x and lam times 2**k
        # give 2**k times the codes and D a and 4**k times the objectives
        # of k = 0, bit for bit, in float32's range or far outside it,
        # restarts included.  The kernel scales x by one power of two.
        rng = np.random.default_rng(6)
        atoms = rng.normal(size=(40, 80))
        atoms /= np.linalg.norm(atoms, axis=0)
        d = cs_dict.Dictionary(atoms=atoms)
        x = rng.normal(size=(1, 16, 40))
        steps = np.array([1.0 / (2.0 * np.linalg.eigvalsh(atoms @ atoms.T)[-1])])
        d32 = atoms.astype(np.float32)[None]
        ref = cs_dict._fista(d32, x, steps, 0.05, 60)
        assert ref[3].sum() > 0  # the restart path ran
        code_ref = cs_dict.fista_encode(d, x[0, 0], 0.05, 60)
        for k in (-300, -120, -60, 60, 126, 300):
            a, da, f, restarts, ran, restart_iters = cs_dict._fista(
                d32, x * 2.0**k, steps, 0.05 * 2.0**k, 60,
            )
            assert np.array_equal(a * 2.0**-k, ref[0]), k
            assert np.array_equal(da * 2.0**-k, ref[1]), k
            assert np.array_equal(f * 4.0**-k, ref[2]), k
            assert np.array_equal(restarts, ref[3]) and (ran, restart_iters) == ref[4:]
            code = cs_dict.fista_encode(d, x[0, 0] * 2.0**k, 0.05 * 2.0**k, 60)
            assert np.array_equal(code * 2.0**-k, code_ref), k

    def test_length_mismatch(self):
        d = cs_dict.Dictionary(atoms=np.eye(4))
        with pytest.raises(ValueError):
            cs_dict.fista_encode(d, np.zeros(5), 0.1, 10)

    @pytest.mark.parametrize("shape, seed", [((40, 80), 1), ((320, 640), 7), ((12, 12), 3)])
    def test_fista_encode_steps_by_the_exact_eigenvalue(self, monkeypatch, shape, seed):
        # 1/(2 lambda_max) with lambda_max from eigvalsh of D^T D, to
        # rounding.  On init_dictionary(320, 640, 7), 30 power iterations
        # from a random start read 4.3 % below it.
        d = cs_dict.init_dictionary(*shape, seed=seed)
        exact = np.linalg.eigvalsh(d.atoms.T @ d.atoms)[-1]
        seen = []
        fista = cs_dict._fista

        def spy(d_rows, x, steps, lam, iters):
            seen.append(steps.copy())
            return fista(d_rows, x, steps, lam, iters)

        monkeypatch.setattr(cs_dict, "_fista", spy)
        cs_dict.fista_encode(d, np.ones(shape[0]), 0.1, iters=3)
        assert len(seen) == 1 and seen[0].shape == (1,)
        assert seen[0][0] == pytest.approx(1.0 / (2.0 * exact), rel=1e-12)

    def test_zero_dictionary_takes_any_step(self):
        # D^T D = 0 bounds nothing: the bound is 1, and the start is kept.
        v = np.full(6, 1.0 / np.sqrt(6.0))
        assert cs_dict.lipschitz_bound(cs_dict.Dictionary(atoms=np.zeros((4, 6))), v) == 1.0
        assert np.array_equal(v, np.full(6, 1.0 / np.sqrt(6.0)))

    def test_warm_lipschitz_bound_leaves_its_vector(self):
        d = cs_dict.init_dictionary(40, 80, seed=1)
        exact = np.linalg.eigvalsh(d.atoms @ d.atoms.T)[-1]
        v = np.random.default_rng(0).normal(size=80)
        v /= np.linalg.norm(v)
        estimates = [cs_dict.lipschitz_bound(d, v) for _ in range(30)]
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
        # each call continues where the last stopped: the estimates rise
        # towards the eigenvalue and never pass it
        assert np.all(np.diff(estimates) >= 0)
        assert estimates[-1] <= exact * (1 + 1e-12)
        assert estimates[-1] >= exact * (1 - POWER_REL_TOL)


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
            cs_dict.train_dictionary([], g, lam=0.05)

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
        # three-GEMM float64 FISTA with the same warm-started step.  Largest
        # seen: atoms 3.7e-8 and epoch objectives 9.4e-9 relative, restarts
        # equal in every epoch.
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

    def test_atoms_do_not_depend_on_the_scale_of_the_data(self):
        # The kernel scales the data and lam by a power of two before its
        # float32 state, so data * 2**k with lam * 2**k and lr * 2**-2k
        # trains bit-equal atoms, in range or far outside float32's.  The
        # data lie in [1/4, 1] so that the float32 input container holds
        # every scaled value exactly.
        rng = np.random.default_rng(12)
        dims = (1, 1, 6, 6, 3)
        dataset = [rng.uniform(0.25, 1.0, size=dims) for _ in range(6)]
        g = cs_dict.make_patch_grid(dims, (1, 1, 4, 4, 3), (2, 2), (0, 0))
        knobs = dict(batch_size=8, fista_iters=20, epochs=2, seed=5)
        ref, _ = cs_dict.train_dictionary(dataset, g, lam=0.05, lr=0.1, **knobs)
        for k in (-120, -60, 60, 126):
            d, _ = cs_dict.train_dictionary(
                [t * 2.0**k for t in dataset], g, lam=0.05 * 2.0**k, lr=0.1 * 2.0**(-2 * k),
                **knobs,
            )
            assert np.array_equal(d.atoms, ref.atoms), k


@pytest.fixture(scope="module")
def benchmark_training(unmasked_fista_oracle):
    """One epoch of training on the dict-fista benchmark set-up: four
    5x5x16x16x5 scenes, (2, 2, 4, 4, 5) atoms and k = 2, so a 320 x 640
    dictionary, 57 batches of 16 and 50 FISTA iterations.  Spies record, per
    batch, the power-iteration estimate and the exact eigenvalue, and the
    float32 kernel's codes and objectives against the float64 oracle's on
    the live atoms (those of `lipschitz_bound`'s call) and the same step."""
    dims = (5, 5, 16, 16, 5)
    profiles = (("random-smooth", "linear-ramp", (-0.5, 0.5)), ("checker", "constant", (0.5,)),
                ("gradient-ramp", "step", (-0.5, 0.5)), ("spectral-stripes", "constant", (-0.3,)))
    scenes = []
    for i, (pattern, profile, params) in enumerate(profiles):
        cv, disp = scenegen.make_scene(scenegen.SceneSpec(
            dims=dims, pattern=pattern, disparity_profile=profile, disparity_params=params,
            seed=200 + i,
        ))
        scenes.append(scenegen.render_lightfield(cv, disp, 5, 5))
    g = cs_dict.make_patch_grid(dims, (2, 2, 4, 4, 5), (1, 1), (0, 0))
    lipschitz_bound, fista = cs_dict.lipschitz_bound, cs_dict._fista
    live, bounds, batches = {}, [], []

    def bound_spy(d, v):
        live["atoms"] = d.atoms.copy()
        estimate = lipschitz_bound(d, v)
        bounds.append((estimate, np.linalg.eigvalsh(d.atoms @ d.atoms.T)[-1]))
        return estimate

    def fista_spy(d_rows, x, steps, lam, iters):
        out = fista(d_rows, x, steps, lam, iters)
        d = cs_dict.Dictionary(atoms=live["atoms"])
        ref, _ = unmasked_fista_oracle(d, x[0].T, lam, iters, steps[0])
        r = x[0].T - d.atoms @ ref
        f_ref = np.sum(r * r, axis=0) + lam * np.abs(ref).sum(axis=0)
        codes = np.linalg.norm(out[0][0].T - ref) / np.linalg.norm(ref)
        objective = np.max(np.abs(out[2][0] - f_ref) / f_ref)
        same_atoms = np.array_equal(d_rows, d.atoms.astype(np.float32)[None])
        batches.append((same_atoms, codes, objective))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cs_dict, "lipschitz_bound", bound_spy)
        mp.setattr(cs_dict, "_fista", fista_spy)
        d, _ = cs_dict.train_dictionary(scenes, g, k=2.0, lam=0.2, lr=0.3, epochs=1, seed=1)
    assert d.atoms.shape == (320, 640)
    return bounds, batches


class TestBenchmarkTraining:
    def test_float32_kernel_matches_float64_kernel_per_batch(self, benchmark_training):
        # Largest seen over the 57 batches: codes 6.6e-6, objectives 2.5e-6
        # (6.9e-6 and 2.7e-6 with training seeds 1-4).
        # A transposed or float32 copy of the atoms left over from an
        # earlier batch fails this.
        _, batches = benchmark_training
        assert len(batches) == 57
        for same_atoms, codes, objective in batches:
            assert same_atoms
            assert codes <= BATCH_CODES_REL_TOL
            assert objective <= BATCH_OBJECTIVE_REL_TOL

    def test_warm_power_iteration_bounds_the_eigenvalue(self, benchmark_training):
        # The first batch starts at the top eigenvector of the initial
        # atoms and ends within 2e-15; later batches start from the last
        # batch's vector.  Largest seen: 1.1e-6 below.
        bounds, _ = benchmark_training
        assert len(bounds) == 57
        for i, (estimate, exact) in enumerate(bounds):
            assert exact * (1 - POWER_REL_TOL) <= estimate <= exact * (1 + 1e-12), i


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
            cs_dict.train_dictionary([np.zeros((1, 1, 4, 4, 2))], g, **{"lam": 0.05, **knobs})

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

    @pytest.mark.parametrize("lam, iters, message", [
        (-1.0, 10, "lam must be finite and >= 0"),
        (float("nan"), 10, "lam must be finite and >= 0"),
        (0.1, -3, "iters must be an integer >= 0"),
        (0.1, True, "iters must be an integer >= 0"),
        (0.1, 2.5, "iters must be an integer >= 0"),
    ])
    def test_fista_encode_rejects(self, lam, iters, message):
        d = cs_dict.init_dictionary(8, 16, seed=0)
        with pytest.raises(ValueError, match=re.escape(message)):
            cs_dict.fista_encode(d, np.ones(8), lam, iters)

    def test_dict_reconstruct_rejects_a_measurement_off_the_grid(self, monkeypatch):
        # 3 x 3 views lift to (3, 3, 4, 4, 2); the grid is of one view with
        # the same atom length.
        monkeypatch.setattr(cs_dict, "_fista", lambda *args: pytest.fail("solved"))
        g = cs_dict.make_patch_grid((1, 1, 4, 4, 2), (1, 1, 4, 4, 2), (0, 0), (0, 0))
        d = cs_dict.init_dictionary(g.atom_len, 2 * g.atom_len, seed=0)
        message = "lifted measurement (3, 3, 4, 4, 2) does not match grid (1, 1, 4, 4, 2)"
        with pytest.raises(ValueError, match=re.escape(message)):
            cs_dict.dict_reconstruct(
                np.zeros((3, 3, 4, 4, 1)), coding.random_mask(4, 4, 2, 0), d, g, 0.1, 10,
            )

    def test_dict_reconstruct_checks_the_atom_length_before_solving(self, monkeypatch):
        # The masked gathers clip their row indices, so a short dictionary
        # used to run the whole solve before depatch refused its codes.
        calls = []
        monkeypatch.setattr(cs_dict, "_fista", lambda *args: calls.append(args))
        dims = (1, 1, 4, 4, 2)
        g = cs_dict.make_patch_grid(dims, dims, (0, 0), (0, 0))
        d = cs_dict.init_dictionary(16, 32, seed=0)
        mask = coding.random_mask(4, 4, 2, 0)
        with pytest.raises(ValueError, match="^dictionary atom length 16 != grid 32$"):
            cs_dict.dict_reconstruct(np.zeros((1, 1, 4, 4, 1)), mask, d, g, 0.1, 10)
        assert calls == []


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


# Observed-row solve, in float32, against the full-height masked float64
# FISTA oracle (tests/conftest.py), which takes the same per-patch steps
# and stop rule: they agree to these tolerances rather than bit for bit,
# and run the same iterations with the same restarts.  Each is about four
# times the largest difference seen on these cases with scene and mask
# seeds 0-3 (seed 0 is tested), at one and two BLAS threads alike:
# reconstruction 1.05e-4, codes 3.4e-4 and per-patch objectives 6.3e-5,
# all on the benchmark scene, and the summed objective, which the stop
# rule reads, 3.6e-6 (single-patch; 2.2e-6 on the benchmark scene).
REC_ABS_TOL = 4e-4  # float32 reconstruction, max abs difference
CODES_REL_TOL = 1.5e-3  # codes, relative l2 (Frobenius) difference
OBJECTIVE_REL_TOL = 2.5e-4  # final masked objective, per patch
OBJECTIVE_SUM_REL_TOL = 1.5e-5  # final masked objective, summed over patches
# The kernel's per-patch objective against the float64 objective of its
# codes (largest seen 4.6e-7).
KEPT_OBJECTIVE_REL_TOL = 1e-6

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
        rec_ref, a_ref, f_ref, iters_ref, restarts_ref, lips_ref = masked_dict_oracle(
            lp, m, d, g, LAM, iters
        )
        rec, rep = cs_dict.dict_reconstruct(lp, m, d, g, LAM, iters)
        a, f, rep_codes = cs_dict._masked_codes(coding.lift(lp, m), m, d, g, LAM, iters)
        assert rep == rep_codes
        assert rec.dtype == np.float32 and rec.shape == dims
        assert np.abs(rec - rec_ref).max() <= REC_ABS_TOL
        if iters == 0:
            assert not a.any() and not rec.any()
            # ||x_m||^2 of float32 values: each square rounds by at most
            # 2**-24 of itself, and the float64 sums add next to nothing
            # (largest seen 1.4e-8).  Sums in float32 would add up to
            # log2(R) such roundings.
            assert np.all(np.abs(f - f_ref) <= 2.0**-24 * f_ref)
        assert np.linalg.norm(a - a_ref) <= CODES_REL_TOL * np.linalg.norm(a_ref)
        assert np.all(np.abs(f - f_ref) <= OBJECTIVE_REL_TOL * f_ref)
        assert abs(f.sum() - f_ref.sum()) <= OBJECTIVE_SUM_REL_TOL * f_ref.sum()
        assert rep.iterations == iters_ref <= iters
        assert rep.restarts == restarts_ref
        if case == "benchmark-scene":
            assert rep.iterations < iters  # the stop rule fired
        assert rep.lipschitz_bound == lips_ref.max()
        assert rep.step == 1.0 / (2.0 * rep.lipschitz_bound)
        assert rep.final_objective == pytest.approx(f.sum(), rel=1e-12)

    def test_codes_do_not_depend_on_the_scale_of_the_data(self):
        # The kernel scales the data and lam by one power of two before its
        # float32 state, so data and lam times 2**k give 2**k times the
        # codes and 4**k times the objectives of k = 0, bit for bit, in
        # float32's range or far outside it (k = +-300), restarts included.
        dims, atom, spatial, angular, iters = ORACLE_CASES["clamped-origin"]
        lp, m, g, d = _coded_case(dims, atom, spatial, angular)
        lifted = coding.lift(lp, m).astype(np.float64)
        a_ref, f_ref, rep_ref = cs_dict._masked_codes(lifted, m, d, g, LAM, iters)
        assert rep_ref.restarts > 0
        for k in (-300, -120, -60, 60, 126, 300):
            a, f, rep = cs_dict._masked_codes(lifted * 2.0**k, m, d, g, LAM * 2.0**k, iters)
            assert np.array_equal(a * 2.0**-k, a_ref), k
            assert np.array_equal(f * 4.0**-k, f_ref), k
            assert (rep.iterations, rep.restarts) == (rep_ref.iterations, rep_ref.restarts)

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
            assert np.all(np.abs(f - recomputed) <= KEPT_OBJECTIVE_REL_TOL * recomputed)
            if previous is not None:
                assert np.all(f <= previous), f"objective rose at iteration {iters}"
            previous = f
        assert rep.restarts > 0  # the restart path ran


# A lam so large that its threshold passes float32's range zeroes every code
# in one iteration, as at any lam past the largest |D^T x|: the kernel clamps
# the threshold to the largest float32, and caps lam where its scale by the
# data's power of two would leave float32's range.  Warnings are errors, so
# an overflow in a cast fails these.  Data scaled by 2**-100 or 2**-300 put
# the two larger lams past float64's range after that scale.
HUGE_LAMS = (1e30, 1e300, float(np.finfo(np.float64).max))


class TestHugeLam:
    @pytest.mark.parametrize("lam", HUGE_LAMS)
    @pytest.mark.parametrize("k", [0, -300])
    def test_masked_codes(self, lam, k):
        dims, atom, spatial, angular, iters = ORACLE_CASES["clamped-origin"]
        lp, m, g, d = _coded_case(dims, atom, spatial, angular)
        lifted = coding.lift(lp, m).astype(np.float64) * 2.0**k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, f, rep = cs_dict._masked_codes(lifted, m, d, g, lam, iters)
        assert not a.any() and rep.iterations == 1 and rep.restarts == 0
        x = cs_dict.patch(lifted, g)
        kept = np.broadcast_to(m[None, None], dims).reshape(-1)[g.index] != 0
        np.testing.assert_allclose(f, np.sum(np.where(kept, x * x, 0.0), axis=1), rtol=1e-6)

    @pytest.mark.parametrize("lam", HUGE_LAMS)
    @pytest.mark.parametrize("k", [0, -300])
    @pytest.mark.parametrize("atom_scale", [1.0, 2.0**-20])
    def test_fista_encode(self, lam, k, atom_scale):
        # Atoms of norm 2**-20 step by about 2**40 / L: the threshold would
        # pass the largest float32 even at a lam that the kernel capped.
        d = cs_dict.init_dictionary(40, 80, seed=1)
        d.atoms *= atom_scale
        x = np.random.default_rng(2).normal(size=40) * 2.0**k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not cs_dict.fista_encode(d, x, lam, iters=20).any()

    @pytest.mark.parametrize("lam", HUGE_LAMS)
    @pytest.mark.parametrize("k", [0, -100])
    def test_one_training_batch(self, lam, k):
        # One batch of all 24 patches: zero codes leave the atoms as they
        # start, up to the renormalization, and the batch objective is that
        # of the zero code.
        rng = np.random.default_rng(12)
        dims = (1, 1, 6, 6, 3)
        dataset = [rng.uniform(0.25, 1.0, size=dims) * 2.0**k for _ in range(6)]
        g = cs_dict.make_patch_grid(dims, (1, 1, 4, 4, 3), (2, 2), (0, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d, rep = cs_dict.train_dictionary(
                dataset, g, lam=lam, lr=0.1, batch_size=24, fista_iters=5, epochs=1, seed=5,
            )
        start = cs_dict.init_dictionary(g.atom_len, d.n_atoms, seed=5)
        np.testing.assert_allclose(d.atoms, start.atoms, rtol=0, atol=1e-15)
        x = np.concatenate([cs_dict.patch(t.astype(np.float32), g) for t in dataset])
        assert x.shape[0] == 24 and rep.restarts == (0,)
        assert rep.epoch_objectives[0] == pytest.approx(np.sum(x * x) / 24, rel=1e-6)
