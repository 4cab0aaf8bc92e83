"""Hygiene tests: examples compile, public modules are documented,
documentation files exist and cover the required content, and the
imports in their code snippets resolve."""

import ast
import importlib
import pathlib
import py_compile
import pkgutil
import re

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


class TestExamples:
    def test_there_are_enough_examples(self):
        assert len(EXAMPLES) >= 3

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_compiles(self, path, tmp_path):
        py_compile.compile(str(path), cfile=str(tmp_path / "out.pyc"), doraise=True)

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_has_docstring_and_main(self, path):
        src = path.read_text()
        assert src.lstrip().startswith(('"""', '#!')), path
        assert '__main__' in src, f"{path} is not runnable as a script"

    def test_quickstart_exists(self):
        assert (ROOT / "examples" / "quickstart.py").exists()


def _all_repro_modules():
    out = []
    for mod in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if mod.name == "repro.__main__":
            continue  # importing it runs the CLI
        out.append(mod.name)
    return out


class TestModuleDocs:
    @pytest.mark.parametrize("name", _all_repro_modules())
    def test_every_module_has_a_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20, name

    def test_public_api_objects_documented(self):
        for attr in repro.__all__:
            if attr.startswith("__"):
                continue
            obj = getattr(repro, attr)
            if isinstance(obj, (int, float, str, tuple, list, dict)):
                continue  # constants
            assert getattr(obj, "__doc__", None), f"{attr} lacks a docstring"


class TestDocumentationFiles:
    @pytest.mark.parametrize("fname", ["README.md", "DESIGN.md", "EXPERIMENTS.md",
                                       "docs/MODEL.md", "docs/API.md",
                                       "docs/TUTORIAL.md"])
    def test_exists_and_nonempty(self, fname):
        path = ROOT / fname
        assert path.exists(), fname
        assert len(path.read_text()) > 500, fname

    def test_design_notes_source_text_mismatch(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "mismatch" in text.lower()
        assert "title" in text.lower()

    def test_experiments_covers_every_registered_experiment(self):
        from repro.bench.figures import ALL_EXPERIMENTS

        text = (ROOT / "EXPERIMENTS.md").read_text()
        for exp_id in ALL_EXPERIMENTS:
            assert f"| {exp_id} " in text, f"{exp_id} missing from EXPERIMENTS.md"

    def test_every_experiment_has_a_bench_file(self):
        from repro.bench.figures import ALL_EXPERIMENTS

        bench_names = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        for exp_id in ALL_EXPERIMENTS:
            prefix = f"bench_{exp_id.lower()}"
            assert any(n.startswith(prefix) for n in bench_names), exp_id

    def test_snippet_imports_resolve(self):
        """Every import statement in a fenced ``python`` block runs."""
        docs = sorted((ROOT / "docs").glob("*.md")) + [
            ROOT / n for n in ("README.md", "EXPERIMENTS.md", "DESIGN.md")]
        imports = []
        for path in docs:
            for block in re.findall(r"^```python\n(.*?)^```", path.read_text(),
                                    re.M | re.S):
                imports += [(path.name, node) for node in ast.walk(ast.parse(block))
                            if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert imports
        for name, node in imports:
            code = compile(ast.Module([node], type_ignores=[]), name, "exec")
            try:
                exec(code, {})
            except ImportError as exc:
                pytest.fail(f"{name}: {ast.unparse(node)}: {exc}")
