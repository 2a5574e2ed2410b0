#!/usr/bin/env python
"""Documentation gate: doctests, markdown link integrity, snippet execution.

Usage::

    PYTHONPATH=src python scripts/check_docs.py             # run every check
    PYTHONPATH=src python scripts/check_docs.py doctests    # docstring examples
    PYTHONPATH=src python scripts/check_docs.py links       # docs/*.md + README links
    PYTHONPATH=src python scripts/check_docs.py snippets    # ```python blocks execute
    PYTHONPATH=src python scripts/check_docs.py knobs       # TUNING.md rows <-> knob parameters
    PYTHONPATH=src python scripts/check_docs.py experiments # REPRODUCING index in sync

Five checks keep the documentation subsystem from rotting:

* **doctests** — every ``>>>`` example in the public-API docstrings
  (:data:`DOCTEST_MODULES`) runs via :mod:`doctest` and must reproduce its
  output;
* **links** — every relative markdown link in ``README.md`` and ``docs/*.md``
  must point at a file that exists in the repo (external http(s) links are
  not fetched);
* **snippets** — every fenced ```python`` block in ``README.md`` and
  ``docs/*.md`` must execute without raising (run under ``PYTHONPATH=src``,
  sharing one namespace per file, in file order);
* **knobs** — every knob named in a ``docs/TUNING.md`` table row (the
  backticked token leading the row) must resolve against the live code: a
  keyword parameter of the public constructors/entry points, or a registered
  value name (executor / scatter / fsync registries).  A
  renamed or removed knob fails here instead of leaving the tuning guide
  describing settings that no longer exist; and every keyword parameter of
  those entry points (bar the wiring in :data:`NON_KNOBS`) must have a row,
  so a new knob cannot ship undocumented;
* **experiments** — the experiments index block in ``docs/REPRODUCING.md``
  (between the ``experiments-index`` markers) must equal
  ``render_experiments_index()`` from
  ``scripts/generate_experiments_md.py``, so the documented index cannot
  drift from ``repro.experiments.registry``.

``tests/test_docs.py`` runs the same checks inside the tier-1 suite; this
script is the standalone/CI entry point.
"""

from __future__ import annotations

import argparse
import doctest
import importlib
import io
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Public-API modules whose docstring examples are executable documentation.
DOCTEST_MODULES: tuple[str, ...] = (
    "repro",
    "repro.core.ait",
    "repro.core.ait_v",
    "repro.core.awit",
    "repro.core.base",
    "repro.core.dataset",
    "repro.core.flat",
    "repro.core.interval",
    "repro.service.engine",
    "repro.service.shard",
    "repro.service.executor",
    "repro.service.gateway",
    "repro.service.metrics",
    "repro.service.admission",
    "repro.service.server",
    "repro.persist.faults",
)

#: Markdown files whose links and python snippets are checked.
DOC_FILES: tuple[str, ...] = ("README.md",) + tuple(
    str(path.relative_to(REPO_ROOT)) for path in sorted((REPO_ROOT / "docs").glob("*.md"))
)

_LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_PYTHON_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def run_doctests() -> list[str]:
    """Run all docstring examples; return a list of failure descriptions."""
    failures: list[str] = []
    for module_name in DOCTEST_MODULES:
        module = importlib.import_module(module_name)
        result = doctest.testmod(module, verbose=False, report=True)
        if result.failed:
            failures.append(f"{module_name}: {result.failed}/{result.attempted} examples failed")
        else:
            print(f"doctests ok: {module_name} ({result.attempted} examples)")
    return failures


def check_links(docs: tuple[str, ...] = DOC_FILES) -> list[str]:
    """Verify every relative markdown link target exists; return failures."""
    failures: list[str] = []
    for doc in docs:
        doc_path = REPO_ROOT / doc
        text = doc_path.read_text()
        checked = 0
        broken = 0
        for match in _LINK_PATTERN.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (doc_path.parent / relative).resolve()
            if not resolved.exists():
                failures.append(f"{doc}: broken link -> {target}")
                broken += 1
            checked += 1
        if broken:
            print(f"links FAILED: {doc} ({broken}/{checked} relative links broken)")
        else:
            print(f"links ok: {doc} ({checked} relative links)")
    return failures


def run_snippets(docs: tuple[str, ...] = DOC_FILES) -> list[str]:
    """Execute every ```python block in the doc files; return failures."""
    failures: list[str] = []
    for doc in docs:
        text = (REPO_ROOT / doc).read_text()
        blocks = _PYTHON_FENCE.findall(text)
        namespace: dict = {}
        failed = 0
        for index, block in enumerate(blocks):
            try:
                with redirect_stdout(io.StringIO()):
                    exec(compile(block, f"<{doc} block {index}>", "exec"), namespace)
            except Exception as exc:  # noqa: BLE001 - report and continue
                failures.append(f"{doc} python block {index}: {type(exc).__name__}: {exc}")
                failed += 1
        if failed:
            print(f"snippets FAILED: {doc} ({failed}/{len(blocks)} python blocks failed)")
        else:
            print(f"snippets ok: {doc} ({len(blocks)} python blocks)")
    return failures


#: Leading backticked token of a TUNING.md table row: the knob name, with or
#: without an ``=value`` / call-signature tail inside the same code span.
_KNOB_ROW = re.compile(r"^\|\s*`([A-Za-z_][A-Za-z0-9_]*)[^`]*`")


#: Keyword parameters of the knob-bearing entry points that are not tuning
#: knobs: the objects being wired together, paths and injected test clocks.
NON_KNOBS = frozenset({"dataset", "directory", "engine", "gateway", "breaker", "clock"})


def _knob_parameters() -> set[str]:
    """Keyword parameters of the public entry points that carry tuning knobs."""
    import inspect

    from repro.service import (
        CircuitBreaker,
        HttpFrontend,
        ProcessExecutor,
        RequestGateway,
        ShardedEngine,
    )

    names: set[str] = set()
    for target in (
        ShardedEngine.__init__,
        ShardedEngine.open,
        ShardedEngine.save_snapshot,
        ProcessExecutor.__init__,
        RequestGateway.__init__,
        HttpFrontend.__init__,
        CircuitBreaker.__init__,
    ):
        names.update(inspect.signature(target).parameters)
    names.discard("self")
    return names


def _resolvable_knobs() -> set[str]:
    """Every name a TUNING.md knob row may legitimately lead with.

    The knob parameters (:func:`_knob_parameters`) plus every registered
    value name (executor kinds, scatter modes, fsync policies) so rows may
    also be keyed by a concrete setting.
    """
    from repro.persist import FSYNC_POLICIES
    from repro.service import EXECUTOR_NAMES, SCATTER_NAMES

    names = _knob_parameters()
    names.update(EXECUTOR_NAMES)
    names.update(SCATTER_NAMES)
    names.update(FSYNC_POLICIES)
    return names


def check_knobs() -> list[str]:
    """Verify docs/TUNING.md's knob rows and the code's knob parameters match.

    Both ways: every row must name a real parameter or registered value,
    and every knob parameter (outside :data:`NON_KNOBS`) must have a row.
    """
    path = REPO_ROOT / "docs" / "TUNING.md"
    if not path.exists():
        return ["docs/TUNING.md: missing (the tuning guide is a documented deliverable)"]
    known = _resolvable_knobs()
    failures: list[str] = []
    rows: set[str] = set()
    for line in path.read_text().splitlines():
        match = _KNOB_ROW.match(line)
        if match is None:
            continue
        token = match.group(1)
        rows.add(token)
        if token not in known:
            failures.append(
                f"docs/TUNING.md: knob `{token}` does not resolve against the code "
                "(not a public tuning parameter or registered value name)"
            )
    if not rows:
        failures.append("docs/TUNING.md: no knob table rows found (backticked first column)")
    for name in sorted(_knob_parameters() - NON_KNOBS - rows):
        failures.append(f"docs/TUNING.md: knob parameter `{name}` has no row")
    if failures:
        print(f"knobs FAILED: docs/TUNING.md ({len(failures)} problems)")
    else:
        print(f"knobs ok: docs/TUNING.md ({len(rows)} knob rows, every knob parameter covered)")
    return failures


def check_experiments_index() -> list[str]:
    """Verify the REPRODUCING.md experiments index equals the registry rendering."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "generate_experiments_md", REPO_ROOT / "scripts" / "generate_experiments_md.py"
    )
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)

    doc = "docs/REPRODUCING.md"
    text = (REPO_ROOT / doc).read_text()
    begin, end = generator.INDEX_BEGIN, generator.INDEX_END
    if begin not in text or end not in text:
        print(f"experiments FAILED: {doc} (markers missing)")
        return [f"{doc}: experiments-index markers missing ({begin} ... {end})"]
    block = text.split(begin, 1)[1].split(end, 1)[0].strip()
    expected = generator.render_experiments_index().strip()
    if block != expected:
        print(f"experiments FAILED: {doc} (index out of sync with the registry)")
        return [
            f"{doc}: experiments index is stale — replace the block between the "
            "experiments-index markers with render_experiments_index() from "
            "scripts/generate_experiments_md.py"
        ]
    print(f"experiments ok: {doc} (index matches {len(expected.splitlines()) - 2} registry entries)")
    return []


ALL_CHECKS = ["doctests", "links", "snippets", "knobs", "experiments"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "checks",
        nargs="*",
        choices=ALL_CHECKS + [[]],
        help="which checks to run (default: all)",
    )
    args = parser.parse_args(argv)

    runners = {
        "doctests": run_doctests,
        "links": check_links,
        "snippets": run_snippets,
        "knobs": check_knobs,
        "experiments": check_experiments_index,
    }
    failures: list[str] = []
    for check in args.checks or ALL_CHECKS:
        failures.extend(runners[check]())
    if failures:
        print("\nFAILURES:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nall documentation checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
