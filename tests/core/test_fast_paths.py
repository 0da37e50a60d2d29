"""The per-design hot paths agree exactly with their straightforward forms.

``canonical_signature`` (memoized symmetry images), ``DataflowSpec.flows``
(reuse directions solved once per loop selection) and ``choose_tile``
(incrementally tracked footprint) are rewrites of the plain formulations
below, which are kept here as references.  The tests compare the two over
every input the Table II sweeps produce.
"""

import random

import pytest

from repro.core import linalg
from repro.core.dataflow import DataflowSpec
from repro.core.enumerate import canonical_signature, iter_designs, loop_selections
from repro.core.naming import ARRAY_SYMMETRIES, _orbit_minimal_matrices
from repro.core.reuse import orient, reuse_space
from repro.core.stt import STT
from repro.hw.plan import choose_tile
from repro.ir import workloads

ARRAYS = ((8, 8), (16, 16), (32, 32), (8, 16), (1, 1))


# -- reference implementations --------------------------------------------
def ref_orient(vec):
    v = tuple(int(x) for x in vec)
    if all(x == 0 for x in v):
        return v
    dt = v[-1]
    if dt < 0:
        return tuple(-x for x in v)
    if dt > 0:
        return v
    first = next(x for x in v if x != 0)
    if first < 0:
        return tuple(-x for x in v)
    return v


def ref_canonical_signature(spec):
    variants = []
    for sym in ARRAY_SYMMETRIES:
        per_tensor = []
        for fl in spec.flows:
            basis = sorted(
                ref_orient((*sym(vec[0], vec[1]), vec[2])) for vec in fl.reuse.basis
            )
            per_tensor.append((fl.tensor_name, fl.kind.value, tuple(basis)))
        variants.append(tuple(per_tensor))
    return min(variants)


def ref_reuse_basis(access_sub, stt):
    basis, iter_basis = [], []
    for it_dir in linalg.nullspace(access_sub):
        mapped = linalg.mat_vec(stt.matrix, it_dir)
        oriented = ref_orient(mapped)
        basis.append(oriented)
        iter_basis.append(it_dir if oriented == tuple(mapped) else tuple(-v for v in it_dir))
    return tuple(basis), tuple(iter_basis)


def ref_space_footprint(space_rows, tile):
    spans = []
    for row in space_rows:
        lo = sum(min(0, coeff) * (t - 1) for coeff, t in zip(row, tile))
        hi = sum(max(0, coeff) * (t - 1) for coeff, t in zip(row, tile))
        spans.append(hi - lo + 1)
    return (spans[0], spans[1])


def ref_choose_tile(spec, rows, cols):
    sel_space = spec.selected_space
    extents = sel_space.extents
    space_rows = spec.stt.space_rows
    dims = (rows, cols)
    tile = [1] * len(extents)

    def fits(t):
        fp = ref_space_footprint(space_rows, t)
        return fp[0] <= dims[0] and fp[1] <= dims[1]

    if not fits(tile):
        raise ValueError(f"even a 1x1x1 tile does not fit a {rows}x{cols} array")
    grew = True
    while grew:
        grew = False
        for i in range(len(tile)):
            if tile[i] < extents[i]:
                cand = list(tile)
                cand[i] += 1
                if fits(cand):
                    tile = cand
                    grew = True
    return dict(zip(sel_space.names, tile))


# -- choose_tile ------------------------------------------------------------
def _tiling_inputs():
    """One spec per distinct ``(space rows, selected extents)`` pair.

    ``choose_tile`` reads nothing else of a spec, so these cover every
    orbit-representative STT x every ordered loop selection of every
    Table II workload.
    """
    reps = _orbit_minimal_matrices(1)
    specs = {}
    for name in sorted(workloads.TABLE_II):
        statement = workloads.TABLE_II[name]()
        for sel in loop_selections(statement):
            extents = statement.space.select(sel).extents
            for matrix in reps:
                key = (matrix[:2], extents)
                if key not in specs:
                    specs[key] = DataflowSpec(statement, sel, STT.trusted(matrix))
    return list(specs.values())


def test_choose_tile_matches_reference_exhaustively():
    specs = _tiling_inputs()
    assert len(specs) > 2000
    for rows, cols in ARRAYS:
        for spec in specs:
            assert choose_tile(spec, rows, cols) == ref_choose_tile(spec, rows, cols), (
                spec.selected,
                spec.stt,
                (rows, cols),
            )


@pytest.mark.parametrize("rows, cols", [(0, 4), (4, 0), (0, 0), (-1, 8)])
def test_choose_tile_rejects_arrays_smaller_than_one_pe(rows, cols):
    spec = DataflowSpec(workloads.gemm(), ("m", "n", "k"), STT.trusted(_orbit_minimal_matrices(1)[0]))
    with pytest.raises(ValueError, match="does not fit"):
        ref_choose_tile(spec, rows, cols)
    with pytest.raises(ValueError, match="does not fit"):
        choose_tile(spec, rows, cols)


# -- orient ------------------------------------------------------------------
def test_orient_matches_reference_on_small_vectors():
    for vec in ((a, b, c) for a in range(-3, 4) for b in range(-3, 4) for c in range(-3, 4)):
        assert orient(vec) == ref_orient(vec), vec
        assert orient(list(vec)) == ref_orient(list(vec)), vec
        assert type(orient(list(vec))) is tuple


# -- canonical_signature ------------------------------------------------------
@pytest.mark.parametrize("workload", ["gemm", "batched_gemv", "mttkrp"])
@pytest.mark.parametrize("realizable_only", [True, False])
def test_canonical_signature_matches_reference(workload, realizable_only):
    statement = workloads.TABLE_II[workload]()
    n = 0
    for spec in iter_designs(statement, canonical=True, realizable_only=realizable_only):
        assert canonical_signature(spec) == ref_canonical_signature(spec), spec
        n += 1
    assert n > 0


# -- flows: the per-selection path agrees with the public reuse_space ----------
@pytest.mark.parametrize("workload", sorted(workloads.TABLE_II))
def test_flows_equal_reuse_space_per_tensor(workload):
    statement = workloads.TABLE_II[workload]()
    rng = random.Random(workload)
    reps = _orbit_minimal_matrices(1)
    for spec in iter_designs(statement, canonical=True, realizable_only=False):
        if rng.random() > 0.2:
            continue
        # a fresh spec classifies without precomputed directions
        for fresh in (spec, DataflowSpec(statement, spec.selected, spec.stt)):
            for fl, acc in zip(fresh.flows, statement.accesses):
                access_sub = acc.restrict(spec.selected)
                assert fl.reuse == reuse_space(access_sub, spec.stt)
                assert (fl.reuse.basis, fl.reuse.iter_basis) == ref_reuse_basis(
                    access_sub, spec.stt
                )
    # also the STTs the stream dedups away, one selection per workload
    sel = next(loop_selections(statement))
    for matrix in rng.sample(reps, 60):
        spec = DataflowSpec(statement, sel, STT.trusted(matrix))
        for fl, acc in zip(spec.flows, statement.accesses):
            assert fl.reuse == reuse_space(acc.restrict(sel), spec.stt)
