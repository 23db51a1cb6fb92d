"""Golden outputs of the Master: plans and reports pinned as literals.

Every planner entry point and every execution path runs on one seeded
in-process cluster, and what it produced -- transfer lists, counts,
modeled phase timings, report fields, span names -- is compared against
values recorded before the planner and phase 3 were restructured.  A
refactor of ``core/master.py`` must leave all of them unchanged.

Transfer lists are pinned per ``(src, dst)`` pair as ``(count, digest)``
where the digest is a SHA-1 prefix over the newline-joined keys in plan
order, so a reordering is as visible as a different key set.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.agent import Agent
from repro.core.master import Master, MigrationPlan, MigrationReport
from repro.core.policies import ElMemPolicy
from repro.core.retry import RetryPolicy
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.memcached.cluster import MemcachedCluster
from repro.memcached.slab import PAGE_SIZE
from repro.netsim.transfer import NetworkModel
from repro.obs import create_telemetry

NODES = [f"node-{i}" for i in range(4)]


def build_cluster() -> MemcachedCluster:
    """Four full 2-page nodes holding two slab classes of uneven heat."""
    cluster = MemcachedCluster(NODES, 2 * PAGE_SIZE)
    rng = random.Random(26)
    keys = [f"key-{i:05d}" for i in range(12000)]
    for i, key in enumerate(keys):
        cluster.set(key, f"v{i}", rng.choice((150, 900)), float(i))
    # Re-touch a skewed sample so node temperatures differ.
    for i, key in enumerate(rng.sample(keys, 1500)):
        cluster.get(key, now=12000.0 + i)
    return cluster


def build_master(faulted: bool) -> tuple[MemcachedCluster, Master]:
    cluster = build_cluster()
    master = Master(
        cluster,
        network=NetworkModel(nic_bandwidth_bps=1e7, connection_setup_s=0.01),
        retry_policy=RetryPolicy(max_attempts=3, base_backoff_s=0.5),
        deadline_s=1.0 if faulted else None,
        telemetry=create_telemetry("golden"),
    )
    return cluster, master


def attach_faults(cluster: MemcachedCluster, master: Master) -> None:
    """A transient flow failure, a dead link, a stall and a 1 s deadline."""
    schedule = FaultSchedule(
        [
            FaultSpec(10.0, "flow_fail", duration_s=0.3),
            FaultSpec(10.0, "flow_fail", dst="node-2"),
            FaultSpec(10.0, "node_stall", node="node-1", factor=0.01),
        ]
    )
    FaultInjector(cluster, schedule).attach(master)


def digest(keys: list[str]) -> str:
    return hashlib.sha1("\n".join(keys).encode()).hexdigest()[:12]


def plan_summary(plan: MigrationPlan) -> dict:
    return {
        "kind": plan.kind,
        "retiring": plan.retiring,
        "retained": plan.retained,
        "new_nodes": plan.new_nodes,
        "transfers": {
            f"{src}>{dst}": (len(keys), digest(keys))
            for (src, dst), keys in plan.transfers.items()
        },
        "pre_deletes": {
            name: (len(keys), digest(keys))
            for name, keys in plan.pre_deletes.items()
        },
        "items_to_migrate": plan.items_to_migrate,
        "bytes_to_migrate": plan.bytes_to_migrate,
        "metadata_bytes": plan.metadata_bytes,
        "fusecache_rounds": plan.fusecache_rounds,
        "fusecache_comparisons": plan.fusecache_comparisons,
        "timings": {
            name: round(seconds, 9)
            for name, seconds in plan.timings.breakdown().items()
        },
    }


def span_names(span) -> list[str]:
    """Depth-first span names, indented one space per level."""
    out: list[str] = []

    def walk(node, depth: int) -> None:
        out.append(" " * depth + node.name)
        for child in node.children:
            walk(child, depth + 1)

    walk(span, 0)
    return out


def report_summary(report: MigrationReport) -> dict:
    return {
        "items_exported": report.items_exported,
        "items_imported": report.items_imported,
        "membership_after": report.membership_after,
        "skipped_pairs": report.skipped_pairs,
        "failed_flows": report.failed_flows,
        "unattempted_pairs": report.unattempted_pairs,
        "completed_pairs": report.completed_pairs,
        "retries": report.retries,
        "retry_time_s": round(report.retry_time_s, 9),
        "outcome": report.outcome,
        "abort_reason": report.abort_reason,
        "executed_at": report.executed_at,
        "actual_duration_s": round(report.actual_duration_s, 9),
        "spans": span_names(report.plan.span),
    }


def make_plan(master: Master, cluster: MemcachedCluster, case: str):
    if case == "scale_in":
        return master.plan_scale_in(master.choose_retiring(1), now=5.0)
    if case == "scale_out":
        return master.plan_scale_out(["node-new"], now=5.0)
    if case == "fraction":
        plan = master.plan_fraction_scale_in(master.choose_retiring(1), 0.6)
        plan.import_mode = "fresh"
        return plan
    if case == "scale_in_replan":
        plan = master.plan_scale_in(master.choose_retiring(1), now=5.0)
        cluster.destroy(plan.retained[0])
        fresh = master.replan(plan)
        assert fresh is not None and fresh is not plan
        return fresh
    if case == "scale_out_replan":
        plan = master.plan_scale_out(["node-new"], now=5.0)
        cluster.destroy("node-0")
        fresh = master.replan(plan)
        assert fresh is not None and fresh is not plan
        return fresh
    if case == "dead_target":
        plan = master.plan_scale_in(master.choose_retiring(1), now=5.0)
        cluster.destroy(plan.retained[0])
        return plan
    raise AssertionError(case)


# ``scale_out_replan`` was recorded after re-planning a scale-out began
# running the same planner as ``plan_scale_out`` (phase timings, its own
# span tree); every other row predates the restructuring.
CASES = ("scale_in", "scale_out", "fraction", "scale_in_replan", "scale_out_replan")

GOLDEN_PLANS = {'scale_in': {'kind': 'scale_in',
              'retiring': ['node-3'],
              'retained': ['node-0', 'node-1', 'node-2'],
              'new_nodes': [],
              'transfers': {'node-3>node-0': (447, 'b1c836e32883'),
                            'node-3>node-1': (717, '41dfbb5e8923'),
                            'node-3>node-2': (719, '558443f5e1f3')},
              'pre_deletes': {},
              'items_to_migrate': 1883,
              'bytes_to_migrate': 762147,
              'metadata_bytes': 41838,
              'fusecache_rounds': 24,
              'fusecache_comparisons': 450,
              'timings': {'scoring': 0.8,
                          'hash_and_dump': 0.02202,
                          'metadata_transfer': 0.0341838,
                          'fusecache': 0.0009,
                          'data_migration': 0.1062147,
                          'import': 0.001438,
                          'retries': 0.0,
                          'total': 0.9647565}},
 'scale_out': {'kind': 'scale_out',
               'retiring': [],
               'retained': ['node-0', 'node-1', 'node-2', 'node-3'],
               'new_nodes': ['node-new'],
               'transfers': {'node-0>node-new': (604, '89abb769c983'),
                             'node-1>node-new': (595, 'd1952c89a4d2'),
                             'node-2>node-new': (422, '5106c2e07164'),
                             'node-3>node-new': (409, '524e71395e94')},
               'pre_deletes': {},
               'items_to_migrate': 2030,
               'bytes_to_migrate': 922770,
               'metadata_bytes': 0,
               'fusecache_rounds': 0,
               'fusecache_comparisons': 0,
               'timings': {'scoring': 0.0,
                           'hash_and_dump': 0.02619,
                           'metadata_transfer': 0.0,
                           'fusecache': 0.0,
                           'data_migration': 0.092277,
                           'import': 0.00406,
                           'retries': 0.0,
                           'total': 0.122527}},
 'fraction': {'kind': 'scale_in',
              'retiring': ['node-3'],
              'retained': ['node-0', 'node-1', 'node-2'],
              'new_nodes': [],
              'transfers': {'node-3>node-0': (309, 'cd0a6eea63c7'),
                            'node-3>node-2': (488, '53c46bd1e192'),
                            'node-3>node-1': (523, 'e5c183c6be9b')},
              'pre_deletes': {'node-0': (1025, '0f8e9efe9f90'),
                              'node-1': (1049, '6971b0c8316a'),
                              'node-2': (937, '82ecaf75cf0d')},
              'items_to_migrate': 1320,
              'bytes_to_migrate': 630630,
              'metadata_bytes': 0,
              'fusecache_rounds': 0,
              'fusecache_comparisons': 0,
              'timings': {'scoring': 0.0,
                          'hash_and_dump': 0.02202,
                          'metadata_transfer': 0.0,
                          'fusecache': 0.0,
                          'data_migration': 0.093063,
                          'import': 0.001046,
                          'retries': 0.0,
                          'total': 0.116129}},
 'scale_in_replan': {'kind': 'scale_in',
                     'retiring': ['node-3'],
                     'retained': ['node-1', 'node-2'],
                     'new_nodes': [],
                     'transfers': {'node-3>node-1': (927,
                                                     '724f3b41bd0b'),
                                   'node-3>node-2': (900,
                                                     '2ffd38e42093')},
                     'pre_deletes': {},
                     'items_to_migrate': 1827,
                     'bytes_to_migrate': 711243,
                     'metadata_bytes': 41838,
                     'fusecache_rounds': 13,
                     'fusecache_comparisons': 286,
                     'timings': {'scoring': 0.0,
                                 'hash_and_dump': 0.02202,
                                 'metadata_transfer': 0.0241838,
                                 'fusecache': 0.000572,
                                 'data_migration': 0.0911243,
                                 'import': 0.001854,
                                 'retries': 0.0,
                                 'total': 0.1397541}},
 'scale_out_replan': {'kind': 'scale_out',
                      'retiring': [],
                      'retained': ['node-1', 'node-2', 'node-3'],
                      'new_nodes': ['node-new'],
                      'transfers': {'node-1>node-new': (595,
                                                        'd1952c89a4d2'),
                                    'node-2>node-new': (422,
                                                        '5106c2e07164'),
                                    'node-3>node-new': (409,
                                                        '524e71395e94')},
                      'pre_deletes': {},
                      'items_to_migrate': 1426,
                      'bytes_to_migrate': 653484,
                      'metadata_bytes': 0,
                      'fusecache_rounds': 0,
                      'fusecache_comparisons': 0,
                      'timings': {'scoring': 0.0,
                                  'hash_and_dump': 0.02619,
                                  'metadata_transfer': 0.0,
                                  'fusecache': 0.0,
                                  'data_migration': 0.0653484,
                                  'import': 0.002852,
                                  'retries': 0.0,
                                  'total': 0.0943904}}}

GOLDEN_REPORTS = {('scale_in', False): {'items_exported': 1883,
                       'items_imported': 1883,
                       'membership_after': ['node-0',
                                            'node-1',
                                            'node-2'],
                       'skipped_pairs': [],
                       'failed_flows': [],
                       'unattempted_pairs': [],
                       'completed_pairs': 3,
                       'retries': 0,
                       'retry_time_s': 0.0,
                       'outcome': 'warm',
                       'abort_reason': None,
                       'executed_at': 10.0,
                       'actual_duration_s': 0.1288107,
                       'spans': ['migration',
                                 ' plan',
                                 '  scoring',
                                 '  dump',
                                 '  fusecache',
                                 ' import',
                                 '  pair',
                                 '  pair',
                                 '  pair',
                                 ' switch']},
 ('scale_in', True): {'items_exported': 1164,
                      'items_imported': 1164,
                      'membership_after': ['node-0',
                                           'node-1',
                                           'node-2'],
                      'skipped_pairs': [],
                      'failed_flows': [('node-3', 'node-2')],
                      'unattempted_pairs': [],
                      'completed_pairs': 2,
                      'retries': 3,
                      'retry_time_s': 2.04,
                      'outcome': 'partial',
                      'abort_reason': 'deadline of 1.0s exceeded 2.3s '
                                      'into phase 3 (pair node-3 -> '
                                      'node-2)',
                      'executed_at': 10.0,
                      'actual_duration_s': 2.2633166,
                      'spans': ['migration',
                                ' plan',
                                '  scoring',
                                '  dump',
                                '  fusecache',
                                ' import',
                                '  pair',
                                '  pair',
                                '  pair',
                                ' switch']},
 ('scale_out', False): {'items_exported': 2030,
                        'items_imported': 2030,
                        'membership_after': ['node-0',
                                             'node-1',
                                             'node-2',
                                             'node-3',
                                             'node-new'],
                        'skipped_pairs': [],
                        'failed_flows': [],
                        'unattempted_pairs': [],
                        'completed_pairs': 4,
                        'retries': 0,
                        'retry_time_s': 0.0,
                        'outcome': 'warm',
                        'abort_reason': None,
                        'executed_at': 10.0,
                        'actual_duration_s': 0.156637,
                        'spans': ['migration',
                                  ' plan',
                                  '  dump',
                                  '  fusecache',
                                  ' import',
                                  '  pair',
                                  '  pair',
                                  '  pair',
                                  '  pair',
                                  ' switch']},
 ('scale_out', True): {'items_exported': 1199,
                       'items_imported': 1199,
                       'membership_after': ['node-0',
                                            'node-1',
                                            'node-2',
                                            'node-3',
                                            'node-new'],
                       'skipped_pairs': [],
                       'failed_flows': [],
                       'unattempted_pairs': [('node-2', 'node-new'),
                                             ('node-3', 'node-new')],
                       'completed_pairs': 2,
                       'retries': 1,
                       'retry_time_s': 0.51,
                       'outcome': 'partial',
                       'abort_reason': 'deadline of 1.0s exceeded 1.2s '
                                       'into phase 3 (pair node-1 -> '
                                       'node-new)',
                       'executed_at': 10.0,
                       'actual_duration_s': 1.1871521,
                       'spans': ['migration',
                                 ' plan',
                                 '  dump',
                                 '  fusecache',
                                 ' import',
                                 '  pair',
                                 '  pair',
                                 ' switch']},
 ('fraction', False): {'items_exported': 1320,
                       'items_imported': 1320,
                       'membership_after': ['node-0',
                                            'node-1',
                                            'node-2'],
                       'skipped_pairs': [],
                       'failed_flows': [],
                       'unattempted_pairs': [],
                       'completed_pairs': 3,
                       'retries': 0,
                       'retry_time_s': 0.0,
                       'outcome': 'warm',
                       'abort_reason': None,
                       'executed_at': 10.0,
                       'actual_duration_s': 0.108903,
                       'spans': ['migration',
                                 ' plan',
                                 '  dump',
                                 ' import',
                                 '  pair',
                                 '  pair',
                                 '  pair',
                                 ' switch']},
 ('fraction', True): {'items_exported': 309,
                      'items_imported': 309,
                      'membership_after': ['node-0',
                                           'node-1',
                                           'node-2'],
                      'skipped_pairs': [],
                      'failed_flows': [('node-3', 'node-2')],
                      'unattempted_pairs': [('node-3', 'node-1')],
                      'completed_pairs': 1,
                      'retries': 3,
                      'retry_time_s': 2.04,
                      'outcome': 'partial',
                      'abort_reason': 'deadline of 1.0s exceeded 2.1s '
                                      'into phase 3 (pair node-3 -> '
                                      'node-2)',
                      'executed_at': 10.0,
                      'actual_duration_s': 2.0683711,
                      'spans': ['migration',
                                ' plan',
                                '  dump',
                                ' import',
                                '  pair',
                                '  pair',
                                ' switch']},
 ('scale_in_replan', False): {'items_exported': 1827,
                              'items_imported': 1827,
                              'membership_after': ['node-1', 'node-2'],
                              'skipped_pairs': [],
                              'failed_flows': [],
                              'unattempted_pairs': [],
                              'completed_pairs': 2,
                              'retries': 0,
                              'retry_time_s': 0.0,
                              'outcome': 'warm',
                              'abort_reason': None,
                              'executed_at': 10.0,
                              'actual_duration_s': 0.1130483,
                              'spans': ['migration',
                                        ' plan',
                                        '  dump',
                                        '  fusecache',
                                        ' import',
                                        '  pair',
                                        '  pair',
                                        ' switch']},
 ('scale_in_replan', True): {'items_exported': 927,
                             'items_imported': 927,
                             'membership_after': ['node-1', 'node-2'],
                             'skipped_pairs': [],
                             'failed_flows': [('node-3', 'node-2')],
                             'unattempted_pairs': [],
                             'completed_pairs': 1,
                             'retries': 3,
                             'retry_time_s': 2.04,
                             'outcome': 'partial',
                             'abort_reason': 'deadline of 1.0s '
                                             'exceeded 2.3s into phase '
                                             '3 (pair node-3 -> '
                                             'node-2)',
                             'executed_at': 10.0,
                             'actual_duration_s': 2.2801843,
                             'spans': ['migration',
                                       ' plan',
                                       '  dump',
                                       '  fusecache',
                                       ' import',
                                       '  pair',
                                       '  pair',
                                       ' switch']},
 ('scale_out_replan', False): {'items_exported': 1426,
                               'items_imported': 1426,
                               'membership_after': ['node-1',
                                                    'node-2',
                                                    'node-3',
                                                    'node-new'],
                               'skipped_pairs': [],
                               'failed_flows': [],
                               'unattempted_pairs': [],
                               'completed_pairs': 3,
                               'retries': 0,
                               'retry_time_s': 0.0,
                               'outcome': 'warm',
                               'abort_reason': None,
                               'executed_at': 10.0,
                               'actual_duration_s': 0.1124604,
                               'spans': ['migration',
                                         ' plan',
                                         '  dump',
                                         '  fusecache',
                                         ' import',
                                         '  pair',
                                         '  pair',
                                         '  pair',
                                         ' switch']},
 ('scale_out_replan', True): {'items_exported': 595,
                              'items_imported': 595,
                              'membership_after': ['node-1',
                                                   'node-2',
                                                   'node-3',
                                                   'node-new'],
                              'skipped_pairs': [],
                              'failed_flows': [],
                              'unattempted_pairs': [('node-2',
                                                     'node-new'),
                                                    ('node-3',
                                                     'node-new')],
                              'completed_pairs': 1,
                              'retries': 1,
                              'retry_time_s': 0.51,
                              'outcome': 'partial',
                              'abort_reason': 'deadline of 1.0s '
                                              'exceeded 1.1s into '
                                              'phase 3 (pair node-1 -> '
                                              'node-new)',
                              'executed_at': 10.0,
                              'actual_duration_s': 1.1429755,
                              'spans': ['migration',
                                        ' plan',
                                        '  dump',
                                        '  fusecache',
                                        ' import',
                                        '  pair',
                                        ' switch']},
 ('dead_target', False): {'items_exported': 1436,
                          'items_imported': 1436,
                          'membership_after': ['node-1', 'node-2'],
                          'skipped_pairs': [('node-3', 'node-0')],
                          'failed_flows': [],
                          'unattempted_pairs': [],
                          'completed_pairs': 2,
                          'retries': 0,
                          'retry_time_s': 0.0,
                          'outcome': 'partial',
                          'abort_reason': None,
                          'executed_at': 10.0,
                          'actual_duration_s': 0.0945644,
                          'spans': ['migration',
                                    ' plan',
                                    '  scoring',
                                    '  dump',
                                    '  fusecache',
                                    ' import',
                                    '  pair',
                                    '  pair',
                                    ' switch']},
 ('dead_target', True): {'items_exported': 717,
                         'items_imported': 717,
                         'membership_after': ['node-1', 'node-2'],
                         'skipped_pairs': [('node-3', 'node-0')],
                         'failed_flows': [('node-3', 'node-2')],
                         'unattempted_pairs': [],
                         'completed_pairs': 1,
                         'retries': 3,
                         'retry_time_s': 2.04,
                         'outcome': 'partial',
                         'abort_reason': 'deadline of 1.0s exceeded '
                                         '2.2s into phase 3 (pair '
                                         'node-3 -> node-2)',
                         'executed_at': 10.0,
                         'actual_duration_s': 2.2290703,
                         'spans': ['migration',
                                   ' plan',
                                   '  scoring',
                                   '  dump',
                                   '  fusecache',
                                   ' import',
                                   '  pair',
                                   '  pair',
                                   ' switch']}}


@pytest.mark.parametrize("case", CASES)
def test_plan_matches_golden(case):
    cluster, master = build_master(faulted=False)
    plan = make_plan(master, cluster, case)
    assert plan_summary(plan) == GOLDEN_PLANS[case]


@pytest.mark.parametrize("faulted", (False, True), ids=("clean", "faulted"))
@pytest.mark.parametrize("case", CASES + ("dead_target",))
def test_execute_matches_golden(case, faulted):
    cluster, master = build_master(faulted)
    plan = make_plan(master, cluster, case)
    if faulted:
        attach_faults(cluster, master)
    report = master.execute(plan, now=10.0)
    assert report_summary(report) == GOLDEN_REPORTS[case, faulted]


def test_scale_out_replan_keeps_the_capacity_trim():
    """A scale-out re-planned around a dead node still trims to capacity.

    The existing nodes are full of one slab class; the new node is
    provisioned with a single page, so its ring share of that class is
    more than it can hold.  Killing an existing node before the policy's
    tick forces a re-plan, which must run FuseCache exactly as the
    original plan did instead of shipping the whole share.
    """
    cluster = MemcachedCluster(NODES, 4 * PAGE_SIZE)
    for i in range(8000):
        cluster.set(f"key-{i:05d}", f"v{i}", 4000, float(i))
    master = Master(cluster, network=NetworkModel(nic_bandwidth_bps=1e7))
    policy = ElMemPolicy()
    policy.bind(cluster, master)
    cluster.memory_per_node = PAGE_SIZE
    policy.on_scale_decision(5, now=0.0)
    _, plan = policy._pending
    (new,) = plan.new_nodes
    agent = Agent(cluster.nodes[new])
    (class_id,) = cluster.nodes["node-0"].active_class_ids()
    capacity = agent.slab_capacity_items(class_id)
    cluster.destroy("node-1")
    policy.tick(1e9)
    assert any(event.kind == "replanned" for event in policy.events)
    replanned = policy.reports[-1].plan
    incoming = sum(
        len(keys) for (_, dst), keys in replanned.transfers.items() if dst == new
    )
    assert 0 < incoming <= capacity
    assert replanned.fusecache_comparisons > 0
