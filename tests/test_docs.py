"""Documentation smoke tests — docs can't silently rot.

The README promises a quickstart, CLI flags, and a benchmark→report table;
ARCHITECTURE promises a layer map.  These tests keep those promises
checkable in CI:

* every ``import``/``from`` line inside the README's fenced code blocks
  must actually import;
* every ``python -m <module>`` in the README's shell snippets must name an
  importable module, and every repo file path a snippet runs must exist;
* every ``examples/*.py`` script must import, and its docstring's usage
  line must name the script's own file; the accelerator example also runs;
* every ``benchmarks/reports/*.txt`` file the README references must exist
  (the benchmark harness regenerates them, so a renamed report breaks the
  table);
* the layer directories ARCHITECTURE's map names must exist, and every
  class the map names must still be exported by one of those layers;
* every ``Class.attribute`` either document names must still exist on a
  class somewhere under ``repro``.

Run the set alone with ``pytest -m docs``.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

pytestmark = pytest.mark.docs

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"
ARCHITECTURE = REPO_ROOT / "docs" / "ARCHITECTURE.md"

_FENCE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)


def _code_blocks(text: str, languages=None):
    """(language, body) pairs of fenced code blocks, optionally filtered."""
    for match in _FENCE.finditer(text):
        language, body = match.group(1).lower(), match.group(2)
        if languages is None or language in languages:
            yield language, body


def test_readme_exists_and_names_the_paper():
    text = README.read_text()
    assert "FIXAR" in text
    assert "Quantization-Aware Training and Adaptive Parallelism" in text


def test_architecture_doc_exists_with_layer_map():
    text = ARCHITECTURE.read_text()
    for layer in ("fixedpoint", "nn", "envs", "rl", "accelerator", "platform",
                  "serving"):
        assert f"src/repro/{layer}/" in text, f"layer map lost the {layer} layer"
        assert (REPO_ROOT / "src" / "repro" / layer).is_dir()


def test_architecture_layer_map_names_resolve():
    """Every backticked CamelCase name in the layer map is a live export.

    A class deleted from the code must leave the map too: each name has to
    resolve as an attribute of some ``repro.<layer>`` package the map lists.
    """
    rows = [
        line for line in ARCHITECTURE.read_text().splitlines()
        if line.startswith("| **")
    ]
    packages = [
        importlib.import_module(f"repro.{layer}")
        for layer in sorted(set(re.findall(r"src/repro/(\w+)/", "\n".join(rows))))
    ]
    names = set(re.findall(r"`([A-Z][a-z0-9]+[A-Z]\w*)`", "\n".join(rows)))
    assert len(packages) >= 8 and len(names) >= 15, "layer map lost its table"
    dangling = sorted(
        name for name in names
        if not any(hasattr(package, name) for package in packages)
    )
    assert not dangling, f"ARCHITECTURE's layer map names missing classes: {dangling}"


_CLASS_ATTRIBUTE = re.compile(
    r"`((?=[A-Za-z0-9]*[a-z])[A-Z][A-Za-z0-9]*)\.([A-Za-z_]\w*)(?:\([^`]*\))?`"
)


def test_documented_class_attributes_resolve():
    """Every backticked ``CamelCase.attribute`` in the docs is a live member.

    A method deleted from the code must leave ARCHITECTURE and the README
    too: each name has to resolve — as an attribute, property or dataclass
    field — on a class of that name defined or re-exported under ``repro``.
    """
    import repro

    classes: dict = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if inspect.isclass(value):
                classes.setdefault(name, set()).add(value)

    def resolves(class_name: str, attribute: str) -> bool:
        for cls in classes.get(class_name, ()):
            if hasattr(cls, attribute):
                return True
            if dataclasses.is_dataclass(cls) and attribute in {
                field.name for field in dataclasses.fields(cls)
            }:
                return True
        return False

    names = set()
    for document in (ARCHITECTURE, README):
        names.update(_CLASS_ATTRIBUTE.findall(document.read_text()))
    assert len(names) >= 25, "the docs lost their Class.attribute references"
    dangling = sorted(
        f"{class_name}.{attribute}"
        for class_name, attribute in names
        if not resolves(class_name, attribute)
    )
    assert not dangling, f"docs name members that no longer exist: {dangling}"


def test_readme_import_lines_execute():
    """Every import statement shown in the README must actually work."""
    import_lines = []
    for _language, body in _code_blocks(README.read_text(), {"python", ""}):
        for line in body.splitlines():
            stripped = line.strip()
            if stripped.startswith(("import ", "from ")):
                import_lines.append(stripped)
    assert import_lines, "README lost its python import examples"
    namespace: dict = {}
    for line in import_lines:
        exec(line, namespace)  # noqa: S102 - executing our own documentation
    assert "train_fleet" in namespace  # the fleet API stays documented


def test_readme_shell_snippets_reference_real_modules_and_files():
    modules = set()
    scripts = set()
    for _language, body in _code_blocks(README.read_text(), {"bash", "sh", "console"}):
        modules.update(re.findall(r"python -m ([\w.]+)", body))
        scripts.update(re.findall(r"python ((?:examples|benchmarks)/[\w./]+\.py)", body))
    assert modules, "README lost its `python -m` quickstart lines"
    for module in modules:
        if module in ("pytest",):
            continue
        importlib.import_module(module)
    assert scripts, "README lost its example-script quickstart lines"
    for script in scripts:
        assert (REPO_ROOT / script).is_file(), f"README references missing {script}"


@pytest.mark.parametrize(
    "example", sorted((REPO_ROOT / "examples").glob("*.py")), ids=lambda path: path.stem
)
def test_every_example_imports(example):
    """Every example's imports resolve against the package as it is now.

    Loaded under a name other than ``__main__``, so its ``main()`` guard
    keeps it from running; a public name deleted from ``repro`` but left in
    an example fails here.
    """
    spec = importlib.util.spec_from_file_location(f"example_{example.stem}", example)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_accelerator_example_runs(capsys):
    """The accelerator example runs end to end: its raw-code datapath stays
    within 1 LSB of ``nn`` and it prints the batch-256 timestep."""
    path = REPO_ROOT / "examples" / "accelerator_simulation.py"
    spec = importlib.util.spec_from_file_location("example_accelerator_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    output = capsys.readouterr().out
    errors = re.findall(r"max error: (\d+) LSB", output)
    assert len(errors) == 1 and int(errors[0]) <= 1, output
    assert re.search(r"batch  256: +\d+ cycles = .* IPS, utilization", output), output


@pytest.mark.parametrize(
    "example", sorted((REPO_ROOT / "examples").glob("*.py")), ids=lambda path: path.stem
)
def test_every_example_docstring_runs_itself(example):
    """Each example's usage line names the example's own file, so a renamed
    script cannot keep telling readers to run its old name."""
    docstring = ast.get_docstring(ast.parse(example.read_text())) or ""
    scripts = re.findall(r"python (examples/\S+\.py)", docstring)
    assert scripts == [f"examples/{example.name}"]


def test_readme_report_references_exist():
    """The benchmark table's report artefacts must exist on disk."""
    references = sorted(
        set(re.findall(r"benchmarks/reports/[\w.]+\.txt", README.read_text()))
    )
    assert len(references) >= 15, "README lost its benchmark→report table"
    missing = [ref for ref in references if not (REPO_ROOT / ref).is_file()]
    assert not missing, f"README references missing reports: {missing}"


def test_every_committed_report_has_a_producer():
    """Each ``benchmarks/reports/<stem>.txt`` is written by some benchmark:
    its ``"<stem>"`` literal (the ``save_report`` name) appears in a
    ``benchmarks/*.py``.  A report whose benchmark was deleted fails here."""
    sources = [path.read_text() for path in (REPO_ROOT / "benchmarks").glob("*.py")]
    reports = sorted((REPO_ROOT / "benchmarks" / "reports").glob("*.txt"))
    assert len(reports) >= 15, "benchmarks/reports lost its committed reports"
    orphans = [
        report.name
        for report in reports
        if not any(f'"{report.stem}"' in source for source in sources)
    ]
    assert not orphans, f"committed reports no benchmark writes: {orphans}"


def test_readme_bench_modules_exist():
    references = set(re.findall(r"benchmarks/bench_\w+\.py", README.read_text()))
    on_disk = {
        f"benchmarks/{path.name}" for path in (REPO_ROOT / "benchmarks").glob("bench_*.py")
    }
    assert references, "README lost its benchmark module references"
    missing = sorted(references - on_disk)
    assert not missing, f"README references missing bench modules: {missing}"
    undocumented = sorted(on_disk - references)
    assert not undocumented, f"bench modules missing from the README table: {undocumented}"


def test_readme_cli_flags_match_the_parser():
    """The scaling-flag table documents exactly the flags the CLI accepts."""
    from repro.cli import build_parser

    parser = build_parser()
    train_parser = next(
        action
        for action in parser._subparsers._group_actions
        if hasattr(action, "choices")
    ).choices["train"]
    cli_flags = {
        option
        for action in train_parser._actions
        for option in action.option_strings
        if option.startswith("--")
    }
    text = README.read_text()
    for flag in ("--num-envs", "--num-workers", "--sync-interval",
                 "--pipeline-depth", "--fleet", "--schedule", "--devices",
                 "--assignment", "--cosim",
                 "--precision-policy", "--precision-spec", "--profile"):
        assert flag in text, f"README lost the {flag} row"
        assert flag in cli_flags, f"README documents {flag} but the CLI dropped it"


def test_readme_serve_flags_match_the_parser():
    """The serving section documents exactly the flags `serve` accepts."""
    from repro.cli import build_parser

    parser = build_parser()
    serve_parser = next(
        action
        for action in parser._subparsers._group_actions
        if hasattr(action, "choices")
    ).choices["serve"]
    cli_flags = {
        option
        for action in serve_parser._actions
        for option in action.option_strings
        if option.startswith("--")
    }
    text = README.read_text()
    assert "python -m repro.cli serve" in text, "README lost the serve quickstart"
    for flag in ("--requests", "--qps", "--slo-ms", "--batch-cap",
                 "--checkpoint", "--devices", "--profile"):
        assert flag in text, f"README lost the {flag} row"
        assert flag in cli_flags, f"README documents {flag} but `serve` dropped it"


def test_architecture_documents_the_serving_layer():
    """ARCHITECTURE's serving section names the front end's moving parts."""
    text = ARCHITECTURE.read_text()
    assert "## Serving" in text, "ARCHITECTURE lost the serving section"
    for name in ("RequestQueue", "DynamicBatcher", "PolicyServer",
                 "serving_round_seconds"):
        assert name in text, f"ARCHITECTURE's serving section lost {name}"


def test_readme_documents_the_linter_command():
    """The README advertises the exact command the CI lint job runs."""
    text = README.read_text()
    assert "python -m repro.analysis --strict src benchmarks examples" in text
    ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "python -m repro.analysis --strict src benchmarks examples" in ci


def test_architecture_documents_every_lint_rule():
    """ARCHITECTURE's static-analysis section lists every registered rule."""
    from repro.analysis import RULES

    text = ARCHITECTURE.read_text()
    assert "repro-lint" in text, "ARCHITECTURE lost the suppression policy"
    for rule_id in RULES:
        assert rule_id in text, f"ARCHITECTURE's rule table lost {rule_id}"


def test_architecture_documents_every_precision_policy():
    """ARCHITECTURE's precision section lists every registered policy."""
    from repro.rl import PRECISION_POLICIES

    text = ARCHITECTURE.read_text()
    assert "Precision policies" in text, "ARCHITECTURE lost the precision section"
    for name in PRECISION_POLICIES:
        assert name in text, f"ARCHITECTURE's precision section lost {name}"
    assert "with_precision_state" in text, (
        "ARCHITECTURE must document the platform re-pricing seam"
    )
