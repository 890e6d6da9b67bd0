"""Back-calculation identities on every zoo workload (Fig. 13).

For each auto-partitioned stack on ``meta_proto_like_df`` at the
diagonal tiles of Figs. 13-15, overlap caching can only remove MACs:
fully-recompute >= H-cached-V-recompute >= fully-cached, and
fully-cached computes exactly what one whole-map tile computes.
"""

import pytest

from repro import get_accelerator, get_workload
from repro.core.backcalc import AxisMemo, backcalculate
from repro.core.optimizer import ALL_MODES, PAPER_DIAGONAL
from repro.core.stacks import partition_stacks
from repro.core.strategy import OverlapMode
from repro.workloads.zoo import WORKLOAD_FACTORIES


@pytest.mark.parametrize("name", list(WORKLOAD_FACTORIES))
def test_mac_ordering_on_zoo_stacks(name):
    accel = get_accelerator("meta_proto_like_df")
    memo = AxisMemo()
    for stack in partition_stacks(get_workload(name), accel):
        sink = stack.sink
        whole = backcalculate(
            stack, OverlapMode.FULLY_CACHED, sink.ox, sink.oy
        ).total_mac_count
        for tx, ty in PAPER_DIAGONAL:
            recompute, h_cached, cached = (
                backcalculate(stack, mode, tx, ty, memo).total_mac_count
                for mode in ALL_MODES
            )
            assert recompute >= h_cached >= cached == whole, (stack.index, tx, ty)
