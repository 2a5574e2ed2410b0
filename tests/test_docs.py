"""The documentation subsystem must not rot.

Enforcement layers, shared with ``scripts/check_docs.py`` (the CI /
standalone entry point):

* every ``>>>`` docstring example in the public API modules runs under
  :mod:`doctest` and must reproduce its output;
* every relative markdown link in ``README.md`` and ``docs/*.md`` must
  resolve to an existing file;
* every fenced ```python`` snippet in those files must execute cleanly;
* every knob row in ``docs/TUNING.md`` must resolve against the live
  signatures / value registries, and every knob parameter must have a row;
* the experiments index block in ``docs/REPRODUCING.md`` must equal the
  registry rendering;
* the constructor signatures ``docs/API.md`` spells out must match the
  live ``inspect.signature`` rendering (parameter names, order, and
  defaults).
"""

from __future__ import annotations

import doctest
import importlib
import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "scripts" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def test_docs_directory_is_complete():
    for required in ("ARCHITECTURE.md", "API.md", "REPRODUCING.md", "TUNING.md"):
        assert (REPO_ROOT / "docs" / required).exists(), f"docs/{required} is missing"


@pytest.mark.parametrize("module_name", check_docs.DOCTEST_MODULES)
def test_docstring_examples(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failures in {module_name}"


def test_public_api_docstrings_carry_examples():
    """The docstring sweep: key public classes must have runnable examples."""
    from repro import AIT, AITV, AWIT, FlatAIT, IntervalDataset, RequestGateway, ShardedEngine
    from repro.core.base import IntervalIndex, SamplingIndex

    for cls in (
        AIT,
        AITV,
        AWIT,
        FlatAIT,
        IntervalDataset,
        RequestGateway,
        ShardedEngine,
        IntervalIndex,
        SamplingIndex,
    ):
        assert cls.__doc__ and ">>>" in cls.__doc__, (
            f"{cls.__name__} lost its runnable docstring example"
        )


@pytest.mark.parametrize("doc", check_docs.DOC_FILES)
def test_markdown_links_resolve(doc):
    with redirect_stdout(io.StringIO()):
        failures = check_docs.check_links((doc,))
    assert not failures, failures


@pytest.mark.parametrize("doc", check_docs.DOC_FILES)
def test_markdown_python_snippets_execute(doc):
    with redirect_stdout(io.StringIO()):
        failures = check_docs.run_snippets((doc,))
    assert not failures, failures


def test_tuning_knobs_resolve():
    """Every knob named in docs/TUNING.md must exist in the live code."""
    with redirect_stdout(io.StringIO()):
        failures = check_docs.check_knobs()
    assert not failures, failures


def test_tuning_knob_check_catches_a_renamed_knob():
    """The knob gate must actually reject rows naming nonexistent knobs."""
    assert "num_shards" in check_docs._resolvable_knobs()
    assert "definitely_not_a_knob" not in check_docs._resolvable_knobs()
    match = check_docs._KNOB_ROW.match("| `block_size` (queries per tile) | ... |")
    assert match is not None and match.group(1) == "block_size"


def test_tuning_knob_check_catches_a_missing_row(tmp_path, monkeypatch):
    """The knob gate must also reject a knob parameter that has no row."""
    text = (REPO_ROOT / "docs" / "TUNING.md").read_text()
    row = next(line for line in text.splitlines() if line.startswith("| `op_timeout`"))
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "TUNING.md").write_text(text.replace(row + "\n", ""))
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    with redirect_stdout(io.StringIO()):
        failures = check_docs.check_knobs()
    assert failures == ["docs/TUNING.md: knob parameter `op_timeout` has no row"]


def test_experiments_index_in_sync():
    """The REPRODUCING.md index block must equal the registry rendering."""
    with redirect_stdout(io.StringIO()):
        failures = check_docs.check_experiments_index()
    assert not failures, failures


def _render_signature(name: str, target) -> str:
    """``name(param, key=default, ...)`` exactly as inspect sees the callable."""
    import inspect

    rendered = []
    for param in inspect.signature(target).parameters.values():
        if param.name == "self":
            continue
        if param.default is inspect.Parameter.empty:
            rendered.append(param.name)
        else:
            rendered.append(f"{param.name}={param.default!r}")
    return f"{name}({', '.join(rendered)})"


def test_api_md_signatures_match_code():
    """docs/API.md's spelled-out call signatures must not drift from the code.

    The comparison normalises whitespace (API.md wraps long signatures) and
    quote style (API.md uses double quotes, ``repr`` single quotes); names,
    order, and default values must match verbatim.
    """
    from repro.service import ProcessExecutor, RequestGateway, ShardedEngine

    text = " ".join((REPO_ROOT / "docs" / "API.md").read_text().split())
    text = text.replace('"', "'")
    for name, target in (
        ("ShardedEngine", ShardedEngine.__init__),
        ("ShardedEngine.open", ShardedEngine.open),
        ("save_snapshot", ShardedEngine.save_snapshot),
        ("ProcessExecutor", ProcessExecutor.__init__),
        ("RequestGateway", RequestGateway.__init__),
    ):
        expected = _render_signature(name, target)
        assert expected in text, (
            f"docs/API.md does not spell the current signature of {name}; "
            f"expected to find (modulo wrapping/quotes): {expected}"
        )


def test_check_docs_cli_runs_clean():
    """The standalone gate itself must exit 0 on the committed tree."""
    with redirect_stdout(io.StringIO()):
        assert check_docs.main(["links", "knobs", "experiments"]) == 0
