"""The import-footprint rule of ``repro/__init__``: the package is standard
library only — importing it, running the protocol and the E1/E7/E8 structural
analyses load no third-party module.

Every case runs in a fresh interpreter (this one may have imported ``numpy``
for other tests) with ``PYTHONPATH=src`` only.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

IMPORTS = """
import sys
at_startup = set(sys.modules)  # whatever the interpreter's site configuration preloads
import repro, repro.api, repro.cluster, repro.scenarios.runner, repro.telemetry
import repro.exec, repro.fuzz, repro.workloads, repro.analysis.convergence, repro.cli
import repro.analysis.graph_metrics, repro.baselines, repro.pubsub.flooding

def third_party():
    tops = {name.partition(".")[0] for name in set(sys.modules) - at_startup}
    return sorted(top for top in tops if top != "repro" and not top.startswith("_")
                  and top not in sys.stdlib_module_names)
"""

RUN_PROTOCOL = """
from repro.api import SystemSpec, build_stable
for spec in (SystemSpec(seed=3), SystemSpec(seed=3, topology="sharded", shards=2)):
    system, subscribers = build_stable(spec, 8)
    assert system.run_until_legitimate()
    publication = system.publish(subscribers[0], b"footprint")
    assert system.run_until_publications_converged()
    assert system.all_subscribers_have(publication.key)
"""


def run_python(*blocks: str) -> None:
    code = "\n".join(textwrap.dedent(block) for block in blocks)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_importing_the_protocol_loads_no_third_party_module():
    run_python(IMPORTS, "assert third_party() == [], third_party()")


def test_running_the_protocol_loads_no_third_party_module():
    run_python(IMPORTS, RUN_PROTOCOL, "assert third_party() == [], third_party()")


def test_the_protocol_runs_where_numpy_cannot_be_imported():
    block = """
    import sys
    sys.modules["numpy"] = None  # importing it raises; the tests use it as a reference
    """
    run_python(block, IMPORTS, RUN_PROTOCOL)


def test_the_structural_analyses_load_no_third_party_module():
    run_python(IMPORTS, """
    from repro.experiments.experiments import e1_topology, e8_congestion
    from repro.pubsub.flooding import ideal_flood_depth
    assert e1_topology((16,)).passed and ideal_flood_depth(64) > 0
    assert e8_congestion((64,), samples=20).passed
    assert third_party() == [], third_party()
    """)
