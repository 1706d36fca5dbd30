"""Documentation invariants: every public item is documented."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(repro.__file__).resolve().parents[2]


def all_repro_modules():
    names = ["repro"]
    for mod in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(mod.name)
    return names


@pytest.mark.parametrize("module_name", all_repro_modules())
def test_module_has_docstring(module_name):
    mod = importlib.import_module(module_name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize("module_name", all_repro_modules())
def test_public_classes_and_functions_documented(module_name):
    mod = importlib.import_module(module_name)
    public = getattr(mod, "__all__", None)
    if public is None:
        return
    for name in public:
        obj = getattr(mod, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", "").startswith("repro"):
                assert inspect.getdoc(obj), f"{module_name}.{name} lacks a docstring"


def test_every_package_defines_all_or_is_leaf():
    for name in all_repro_modules():
        mod = importlib.import_module(name)
        if hasattr(mod, "__path__"):  # a package
            assert hasattr(mod, "__all__"), f"package {name} lacks __all__"


class TestRepoDocs:
    @pytest.mark.parametrize("fname", ["README.md", "DESIGN.md"])
    def test_top_level_docs_exist(self, fname):
        path = REPO_ROOT / fname
        assert path.exists(), f"{fname} missing"
        assert len(path.read_text()) > 500

    def test_design_lists_every_experiment(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        for artefact in ("table1", "table2", "table3", "fig4", "fig6", "fig7"):
            assert artefact in text

    def test_examples_have_module_docstrings(self):
        for path in sorted((REPO_ROOT / "examples").glob("*.py")):
            tree = ast.parse(path.read_text())
            assert ast.get_docstring(tree), f"{path.name} lacks a docstring"

    def test_examples_quickstart_exists(self):
        assert (REPO_ROOT / "examples" / "quickstart.py").exists()

    def test_at_least_three_examples(self):
        examples = list((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3

    def test_benchmarks_cover_every_paper_artifact(self):
        names = {p.name for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")}
        for artefact in ("table1", "fig2", "fig4", "table2", "fig6", "fig7",
                         "table3", "headline"):
            assert any(artefact in n for n in names), f"no bench for {artefact}"

    def test_examples_are_valid_python(self):
        for path in sorted((REPO_ROOT / "examples").glob("*.py")):
            compile(path.read_text(), str(path), "exec")


class TestServingDocs:
    """The serving subsystem is documented where users will look."""

    def test_readme_has_a_serving_section(self):
        text = (REPO_ROOT / "README.md").read_text()
        assert "## Serving" in text
        assert "repro.serve" in text
        assert "bit-identical" in text
        assert "check.sh --serve" in text

    def test_design_has_the_serving_section(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        assert "## 11. Inference serving (`repro.serve`)" in text
        for term in ("batch_invariant_matmul", "max_batch", "queue_depth",
                     "BENCH_serve.json", "quantize_cached"):
            assert term in text, f"DESIGN.md serving section lacks {term}"

    def test_design_fault_table_lists_serve_scope(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        assert "| `serve` |" in text

    def test_cli_help_lists_serve(self):
        from repro.cli import build_parser
        help_text = build_parser().format_help()
        assert "serve" in help_text
        args = build_parser().parse_args(
            ["serve", "micro-cnn", "--max-batch", "4", "--mode", "engine",
             "--open", "--rate", "100", "--stats"])
        assert (args.max_batch, args.mode, args.open_loop,
                args.stats) == (4, "engine", True, True)

    def test_bench_serve_exists_with_docstring(self):
        path = REPO_ROOT / "benchmarks" / "bench_serve.py"
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree)


class TestShardDocs:
    """The sharded-serving subsystem is documented where users will look."""

    def test_readme_has_the_sharded_section(self):
        text = (REPO_ROOT / "README.md").read_text()
        assert "### Sharded serving (`--shards N`)" in text
        assert "check.sh --shard" in text
        assert "cpu_limited" in text

    def test_design_has_the_shard_section(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        assert "## 13. Sharded serving (`serve.shard` + `serve.shm`)" in text
        for term in ("HashRing", "attach-or-recalibrate", "SHA-256",
                     "64-byte", "Exactly-once", "merge_snapshots",
                     "RELATIVE_ACCURACY"):
            assert term in text, f"DESIGN.md shard section lacks {term}"

    def test_design_fault_table_lists_shard_scope(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        assert "| `shard` |" in text

    def test_cli_serve_accepts_shards_flag(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["serve", "micro-mlp", "--shards", "2", "--stats"])
        assert (args.shards, args.stats) == (2, True)
        assert build_parser().parse_args(["serve", "micro-mlp"]).shards == 0

    def test_faults_registry_lists_the_shard_points(self):
        from repro.resilience import faults
        scopes = {p[0] for p in faults.INJECTION_POINTS}
        assert "shard" in scopes
        shard_sites = " ".join(p[1] for p in faults.INJECTION_POINTS
                               if p[0] == "shard")
        assert "ShardRouter.submit" in shard_sites
        assert "shm" in shard_sites or "segment" in shard_sites.lower()


class TestGatewayDocs:
    """The network gateway is documented where users will look."""

    def test_readme_has_the_gateway_section(self):
        text = (REPO_ROOT / "README.md").read_text()
        assert "### Serving over the network" in text
        assert "GatewayClient" in text
        assert "check.sh --net" in text

    def test_design_has_the_gateway_section(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        assert "## 15. Network gateway (`serve.gateway` + `serve.client`)" \
            in text
        for term in ("length-prefixed", "circuit breaker", "half-open",
                     "deadline propagation", "max_inflight", "drain",
                     "force_respawn", "RETRYABLE_KINDS"):
            assert term in text, f"DESIGN.md gateway section lacks {term}"

    def test_design_fault_table_lists_net_scope(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        assert "| `net` |" in text
        for action in ("drop", "delay", "garble"):
            assert action in text

    def test_faults_registry_lists_the_net_points(self):
        from repro.resilience import faults
        scopes = {p[0] for p in faults.INJECTION_POINTS}
        assert "net" in scopes
        net_sites = " ".join(p[1] for p in faults.INJECTION_POINTS
                             if p[0] == "net")
        assert "accept" in net_sites
        assert "frame" in net_sites and "reply" in net_sites

    def test_cli_serve_accepts_gateway_flags(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["serve", "micro-mlp", "--host", "0.0.0.0", "--port", "9000",
             "--drain-timeout", "5"])
        assert (args.host, args.port, args.drain_timeout) == \
            ("0.0.0.0", 9000, 5.0)
        legacy = build_parser().parse_args(["serve", "micro-mlp", "--stats"])
        assert legacy.host is None and legacy.port is None and legacy.stats

    def test_check_sh_gates_the_net_suite(self):
        text = (REPO_ROOT / "scripts" / "check.sh").read_text()
        assert "--net" in text and "-m net" in text


class TestMixedPrecisionDocs:
    """Mixed-precision PTQ + frontier are documented where users look."""

    def test_readme_has_the_frontier_quickstart(self):
        text = (REPO_ROOT / "README.md").read_text()
        assert "### Mixed-precision frontier quickstart" in text
        assert "experiments frontier" in text
        assert "mixed(" in text

    def test_design_has_the_mixed_section(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        assert ("## 16. Mixed-precision PTQ "
                "(`quant.mixed` + `experiments.frontier`)") in text
        for term in ("mixed(DEFAULT;layer=FMT;...)", "knapsack",
                     "bias_correct", "unit cost", "Pareto",
                     "mixed:allocate"):
            assert term in text, f"DESIGN.md mixed section lacks {term}"

    def test_design_fault_table_lists_the_mixed_points(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        assert "| `mixed` |" in text
        assert "`frontier._eval_cell_task`" in text

    def test_faults_registry_lists_the_mixed_points(self):
        from repro.resilience import faults
        scopes = {p[0] for p in faults.INJECTION_POINTS}
        assert "mixed" in scopes
        sites = " ".join(p[1] for p in faults.INJECTION_POINTS)
        assert "allocate" in sites
        assert "frontier" in sites

    def test_cli_experiments_accepts_frontier(self):
        import repro.cli
        assert "frontier" in repro.cli.__doc__
        args = repro.cli.build_parser().parse_args(
            ["experiments", "frontier", "--jobs", "2", "--seeds", "3"])
        assert (args.names, args.jobs, args.seeds) == (["frontier"], 2, 3)


class TestConcurrencyDocs:
    """The concurrency analyzer + sanitizer are documented where users look."""

    def test_readme_covers_the_concurrency_pass(self):
        text = (REPO_ROOT / "README.md").read_text()
        assert "analyze concurrency" in text
        assert "REPRO_SANITIZE=1" in text
        assert "check.sh" in text and "--sanitize" in text
        assert "0 clean, 1 findings, 2 usage error" in text

    def test_design_has_the_concurrency_section(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        assert ("## 14. Concurrency analysis "
                "(`analysis.concurrency` + `repro.sanitize`)") in text
        for term in ("lock-inversion", "cross_check", "PoolShutdown",
                     "Tarjan", "creation site", "_locked"):
            assert term in text, f"DESIGN.md concurrency section lacks {term}"

    def test_design_table_lists_every_diagnostic_kind(self):
        from repro.analysis.concurrency import RULES
        text = (REPO_ROOT / "DESIGN.md").read_text()
        for rule in RULES:
            assert f"| `{rule}` |" in text, rule
        for kind in ("lock-inversion", "unknown-lock", "missing-edge"):
            assert kind in text, kind

    def test_cli_help_lists_the_concurrency_pass(self):
        from repro.cli import build_parser
        help_text = build_parser().format_help()
        assert "analyze" in help_text
        args = build_parser().parse_args(
            ["analyze", "concurrency", "src/repro", "--json"])
        assert args.paths == ["src/repro"] and args.json

    def test_check_sh_gates_the_concurrency_pass(self):
        text = (REPO_ROOT / "scripts" / "check.sh").read_text()
        assert "analyze concurrency" in text
        assert "--sanitize" in text and "REPRO_SANITIZE=1" in text
