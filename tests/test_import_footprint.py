"""The import-footprint rule of ``repro/__init__``: importing and running the
protocol loads no third-party module; ``networkx`` is loaded when an E1/E7/E8
structural analysis is actually called.

Every case runs in a fresh interpreter (this one has long since imported
``networkx`` for other tests) with ``PYTHONPATH=src`` only.
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


def test_the_protocol_runs_where_neither_library_can_be_imported():
    block = """
    import sys
    sys.modules["networkx"] = sys.modules["numpy"] = None  # importing either raises
    """
    run_python(block, IMPORTS, RUN_PROTOCOL)


def test_a_structural_analysis_is_what_loads_networkx():
    run_python("""
    import sys
    from repro.core.skip_ring import SkipRingTopology
    assert SkipRingTopology(1).diameter() == 0
    assert "networkx" not in sys.modules
    graph = SkipRingTopology(8).to_networkx()
    assert "networkx" in sys.modules and graph.number_of_nodes() == 8
    assert SkipRingTopology(8).diameter() == 3
    """)
