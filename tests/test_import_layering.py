"""Start-up import layering: a command loads only the modules it runs.

Without a bytecode cache every module a process imports is compiled from
source in that process, so the one-shot CLI's latency is mostly the code it
loads.  These tests pin the three layering rules (see
``docs/architecture.md``, "Start-up cost and import layering"):

* package ``__init__`` modules resolve their exports lazily;
* each subcommand imports its own stack inside the command;
* ``serve`` imports everything its ops use before the first request.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.cli.main import COMMANDS

SRC = str(Path(__file__).resolve().parent.parent / "src")

PACKAGES = (
    "repro",
    "repro.sil",
    "repro.analysis",
    "repro.cache",
    "repro.workloads",
    "repro.obs",
    "repro.faults",
    "repro.parallel",
    "repro.interference",
    "repro.runtime",
    "repro.server",
    "repro.baselines",
)

#: What ``analyze tree_add --census`` must not load: the daemon, the
#: generators and timing harness, the interpreter, the persistent cache
#: tiers, the program builder, deltas and re-analysis, the baselines, and
#: the stdlib stacks only those use.
NOT_ON_THE_ANALYZE_PATH = (
    "repro.server",
    "repro.workloads.generators",
    "repro.workloads.timing",
    "repro.runtime",
    "repro.cache.disk",
    "repro.cache.codec",
    "repro.cache.memory",
    "repro.sil.builder",
    "repro.sil.delta",
    "repro.analysis.reanalysis",
    "repro.baselines",
    "multiprocessing",
    "statistics",
    "asyncio",
)

#: The subcommands ``python -m repro --help`` lists, in order.
SUBCOMMANDS = ["analyze", "bench", "reanalyze", "generate", "cache", "serve", "client"]


def _run_fresh(code: str, tmp_path) -> object:
    """Run ``code`` in a fresh interpreter; it must print a JSON document last."""
    env = dict(os.environ, PYTHONPATH=SRC)
    process = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


def _loaded(modules, name: str) -> bool:
    return any(module == name or module.startswith(name + ".") for module in modules)


def test_analyze_census_loads_only_its_stack(tmp_path):
    report = _run_fresh(
        "import contextlib, io, json, runpy, sys\n"
        "sys.argv = ['repro', 'analyze', 'tree_add', '--census']\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    try:\n"
        "        runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as exit:\n"
        "        code = exit.code\n"
        "print(json.dumps({'code': code, 'stdout': out.getvalue(),\n"
        "                  'modules': sorted(sys.modules)}))\n",
        tmp_path,
    )
    assert report["code"] == 0
    assert "parallelism census" in report["stdout"]
    assert "groups=" in report["stdout"].split("parallelism census")[1]
    loaded = [name for name in NOT_ON_THE_ANALYZE_PATH if _loaded(report["modules"], name)]
    assert not loaded, f"analyze --census loaded {loaded}"


def test_import_repro_loads_no_subpackage(tmp_path):
    modules = _run_fresh(
        "import json, sys\n"
        "import repro\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n",
        tmp_path,
    )
    assert modules == ["repro", "repro._lazy"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, f"{package}.{name}"
    assert set(module.__all__) <= set(dir(module))
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")


def test_lazy_exports_are_the_defining_objects():
    import repro
    import repro.analysis
    import repro.sil
    from repro.analysis.matrix import PathMatrix
    from repro.sil import ast
    from repro.sil.normalize import parse_and_normalize

    assert repro.analysis.PathMatrix is PathMatrix
    assert repro.sil.ast is ast and repro.ast is ast
    assert repro.parse_and_normalize is parse_and_normalize


def test_help_lists_the_same_subcommands(capsys):
    with pytest.raises(SystemExit) as exit:
        main(["--help"])
    assert exit.value.code == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(SUBCOMMANDS) + "}" in out
    assert list(COMMANDS) == SUBCOMMANDS
    for name in SUBCOMMANDS:
        assert f"    {name} " in out


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_each_subcommand_configures_its_own_help(command, capsys):
    with pytest.raises(SystemExit) as exit:
        main([command, "--help"])
    assert exit.value.code == 0
    assert f"usage: python -m repro {command}" in capsys.readouterr().out


def test_serve_imports_everything_its_ops_use(tmp_path):
    """After start-up (what ``serve`` loads before listening), no op imports."""
    report = _run_fresh(
        "import json, sys\n"
        "from repro.cli.main import build_parser\n"
        f"socket = {str(tmp_path / 'daemon.sock')!r}\n"
        "args = build_parser(['serve']).parse_args(['serve', '--socket', socket])\n"
        "from repro.server.daemon import AnalysisServer, ServerConfig\n"
        "from repro.server.protocol import DEFAULT_MAX_FRAME\n"
        "server = AnalysisServer(ServerConfig(socket_path=socket))\n"
        "started = set(sys.modules)\n"
        "from repro.workloads.generators import (\n"
        "    GeneratorConfig, generate_edited_pair, generate_scenario)\n"
        "from repro.workloads.suite import source\n"
        "scenario = generate_scenario(1, GeneratorConfig(family='deep'))\n"
        "pair = generate_edited_pair(scenario.source, 0, edits=1)\n"
        "service = server.service\n"
        "service.analyze({'workloads': ['tree_add']})\n"
        "service.analyze({'workloads': ['tree_add']})\n"
        "service.analyze({'programs': [{'name': 'p', 'source': source('list_walk')}]})\n"
        "service.bench({'seeds': 2})\n"
        "service.reanalyze({'old_source': pair.old_source,\n"
        "                   'new_source': pair.new_source, 'verify': True})\n"
        "service.cache_stats({})\n"
        "service.metrics_payload({})\n"
        "service.metrics_payload({'format': 'prometheus'})\n"
        "service.close()\n"
        "print(json.dumps(sorted(set(sys.modules) - started)))\n",
        tmp_path,
    )
    assert report == [], f"daemon ops imported {report} after start-up"
