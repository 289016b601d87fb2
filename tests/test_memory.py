"""Bytes per edge of one scoring call on the lib-dense benchmark data
(gaussian, d=50, n=2000, un-approx radii, about 1.2 M edges), where the
digraph's edge arrays are the program's memory. tracemalloc counts
numpy's allocations, so the figures do not depend on the allocator or on
what else the process holds."""

import tracemalloc

from ccdscore.graph import un_approx
from ccdscore.scores import score_point_set
from ccdscore.simgen import SimConfig, generate

# Peak traced bytes per edge during one call: 50.4 with int64 CSRs and
# the scores' edge-sized gathers, 27.3 with int32 CSRs and row blocks.
PEAK_BYTES_PER_EDGE = 36


def test_scoring_peak_and_held_digraph_bytes_per_edge():
    cfg = SimConfig(regime="gaussian", d=50, n=2000, seed=2, outlier_fraction=0.05)
    ps = generate(cfg)

    def score():
        return score_point_set(ps, un_approx(), cluster_shape="gaussian", s_min=0.04)

    # a first call loads what the pipeline imports lazily
    score()
    tracemalloc.start()
    try:
        rep = score()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dg = rep.digraph
    edges = dg.out_ids.size
    assert edges > 1_000_000
    assert peak <= PEAK_BYTES_PER_EDGE * edges
    held = sum(a.nbytes for a in (dg.out_ptr, dg.out_ids, dg.in_ptr, dg.in_ids))
    # four bytes per edge in each direction, and the two row pointers
    assert held <= 8 * edges + 8 * (dg.n + 1)
