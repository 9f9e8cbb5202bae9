"""One entry point per paper table and figure (see DESIGN.md §4).

Re-exports the experiment functions from their topic modules so callers
(benchmarks, examples, EXPERIMENTS.md regeneration) can import everything
from one place.
"""

from repro.harness.experiments_btree import (
    build_btree_variants,
    experiment_fig12,
    experiment_fig13,
    experiment_fig14,
    experiment_fig15,
    experiment_fig16,
    experiment_fig17,
    scaled_manager_config,
)
from repro.harness.experiments_concurrency import experiment_fig18
from repro.harness.experiments_durability import experiment_crash_campaign
from repro.harness.experiments_faults import experiment_fault_campaign
from repro.harness.experiments_micro import (
    experiment_appendix_fig2_distributions,
    experiment_appendix_fig5_workloads,
    experiment_fig2,
    experiment_fig3,
    experiment_fig5,
    experiment_fig6,
    experiment_fig9,
    experiment_table1,
    experiment_table2,
    experiment_table4,
)
from repro.harness.experiments_net import experiment_net_bench
from repro.harness.experiments_replication import experiment_replication_bench
from repro.harness.experiments_trie import (
    build_trie_variants,
    experiment_fig19,
    experiment_fig20,
    scaled_trie_manager_config,
)

__all__ = [
    "build_btree_variants",
    "build_trie_variants",
    "scaled_manager_config",
    "scaled_trie_manager_config",
    "experiment_appendix_fig2_distributions",
    "experiment_appendix_fig5_workloads",
    "experiment_crash_campaign",
    "experiment_fault_campaign",
    "experiment_fig2",
    "experiment_fig3",
    "experiment_fig5",
    "experiment_fig6",
    "experiment_fig9",
    "experiment_fig12",
    "experiment_fig13",
    "experiment_fig14",
    "experiment_fig15",
    "experiment_fig16",
    "experiment_fig17",
    "experiment_fig18",
    "experiment_fig19",
    "experiment_fig20",
    "experiment_net_bench",
    "experiment_replication_bench",
    "experiment_table1",
    "experiment_table2",
    "experiment_table4",
]
