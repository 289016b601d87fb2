"""Bytes per edge of one scoring call with un-approx radii at d=50, where
the digraph's edge arrays are the program's memory: on the lib-dense
benchmark data (gaussian, n=2000, about 1.2 M edges), and on a uniform
cube of n=4000 whose balls cover nearly every point (about 16 M edges),
where a block of edges is a small share of the graph. tracemalloc counts
numpy's allocations, so the figures do not depend on the allocator or on
what else the process holds."""

import tracemalloc

import numpy as np

from ccdscore import scores
from ccdscore.dataset import PointSet
from ccdscore.graph import un_approx
from ccdscore.simgen import SimConfig, generate

MIB = 1 << 20

# Peak traced bytes per edge during one call: 50.4 with int64 CSRs and
# the scores' edge-sized gathers, 27.3 with int32 CSRs and row blocks,
# 12.1 (lib-dense) and 10.4 (cube) with the out-CSR placed from int32
# ball blocks and the mutual components merged block by block.
PEAK_BYTES_PER_EDGE = 15
# Rise of the digraph build over what was held when it began, per edge:
# the held 8 and the transpose's int8 data; 10.2 and 10.1 measured.
BUILD_RISE_BYTES_PER_EDGE = 13
# The clustering and ios_raw walk row blocks of about GATHER_CHUNK / 4
# entries, and the rows the clustering's nearest widens come in pieces
# of about GATHER_CHUNK table entries, so neither rise grows with the edge
# count: 2.0 and 1.8 MiB measured for the clustering, 3.2 and 3.3 MiB for
# ios_raw.
CLUSTER_RISE_BYTES = int(2.5 * MIB)
IOS_RAW_RISE_BYTES = int(4.25 * MIB)
STAGES = ("build_catch_digraph", "cluster_digraph", "ios_raw")


def traced_call(ps, shape, monkeypatch):
    """(report, peak, rises): one scoring call under tracemalloc, its
    traced peak, and the rise of each of STAGES over what was held when
    the stage began."""
    peaks, rises = [], {}

    def stage(name, fn):
        def traced(*args, **kwargs):
            held, peak = tracemalloc.get_traced_memory()
            peaks.append(peak)
            tracemalloc.reset_peak()
            out = fn(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
            peaks.append(peak)
            rises[name] = peak - held
            return out

        return traced

    for name in STAGES:
        monkeypatch.setattr(scores, name, stage(name, getattr(scores, name)))
    tracemalloc.start()
    try:
        rep = scores.score_point_set(ps, un_approx(), cluster_shape=shape, s_min=0.04)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return rep, max(peaks), rises


def check_bounds(ps, shape, monkeypatch):
    # a first call, on a few points, loads what the pipeline imports lazily
    scores.score_point_set(PointSet(ps.points[:200]), un_approx(), cluster_shape=shape)
    rep, peak, rises = traced_call(ps, shape, monkeypatch)
    dg = rep.digraph
    edges = dg.out_ids.size
    assert edges > 1_000_000
    assert peak <= PEAK_BYTES_PER_EDGE * edges
    assert rises["build_catch_digraph"] <= BUILD_RISE_BYTES_PER_EDGE * edges
    assert rises["cluster_digraph"] <= CLUSTER_RISE_BYTES
    assert rises["ios_raw"] <= IOS_RAW_RISE_BYTES
    held = sum(a.nbytes for a in (dg.out_ptr, dg.out_ids, dg.in_ptr, dg.in_ids))
    # four bytes per edge in each direction, and the two row pointers
    assert held <= 8 * edges + 8 * (dg.n + 1)
    return edges


def test_scoring_peak_and_held_digraph_bytes_per_edge(monkeypatch):
    cfg = SimConfig(regime="gaussian", d=50, n=2000, seed=2, outlier_fraction=0.05)
    check_bounds(generate(cfg), "gaussian", monkeypatch)


def test_uniform_cube_bounds_with_blocks_far_below_the_edge_count(monkeypatch):
    ps = PointSet(np.random.default_rng(0).random((4000, 50)))
    edges = check_bounds(ps, "uniform", monkeypatch)
    assert edges > 15_000_000
