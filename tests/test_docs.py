"""The documentation suite must stay consistent with the code.

Runs the same checks as the CI ``docs`` job (``tools/check_docs.py``):
internal links in ``README.md`` and ``docs/*.md`` resolve, the campaign
presets documented there match ``repro.cli.CAMPAIGN_PRESETS`` and the
``campaign --help`` output, and the benchmark bounds the prose quotes match
the gate in ``tools/check_bench.py``.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_suite_exists():
    for name in ("architecture.md", "campaigns.md", "runtable-schema.md"):
        assert (REPO_ROOT / "docs" / name).is_file(), f"docs/{name} is missing"


def test_internal_links_resolve():
    checker = _load_checker()
    errors: list[str] = []
    checker.check_links(errors)
    assert errors == []


def test_campaign_presets_documented_and_listed_in_help():
    checker = _load_checker()
    errors: list[str] = []
    checker.check_presets(errors)
    assert errors == []


def test_bench_bounds_quoted_in_docs():
    checker = _load_checker()
    errors: list[str] = []
    checker.check_bench_floors(errors)
    assert errors == []


def test_bench_bound_checker_catches_drift(tmp_path, monkeypatch):
    """A quote that disagrees with the gate, or a bound no prose quotes,
    must fail the check."""
    checker = _load_checker()
    (tmp_path / "docs").mkdir()
    for source in checker.markdown_files():
        text = (source.read_text()
                .replace("2x batched-decode", "4x batched-decode")
                .replace("fleet-stepping", "fleet stepping"))
        (tmp_path / source.relative_to(REPO_ROOT)).write_text(text)
    monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
    errors: list[str] = []
    checker.check_bench_floors(errors)
    assert any("'4x batched-decode'" in error
               and "batched_decode.by_batch.8.speedup to 2" in error
               for error in errors), errors
    assert any("no markdown file quotes the by_fleet.16.speedup bound" in error
               for error in errors), errors


def test_runtable_schema_documents_every_column():
    """docs/runtable-schema.md must name every RunRecord column verbatim."""
    from repro.eval.runtable import COLUMNS

    schema = (REPO_ROOT / "docs" / "runtable-schema.md").read_text()
    missing = [column for column in COLUMNS if f"`{column}`" not in schema]
    assert missing == [], f"columns undocumented in runtable-schema.md: {missing}"


def test_report_columns_documented():
    """The campaigns.md report-column table matches SUMMARY_COLUMNS exactly."""
    checker = _load_checker()
    errors: list[str] = []
    checker.check_report_columns(errors)
    assert errors == []


def test_report_column_checker_catches_drift(tmp_path, monkeypatch):
    """Renaming a documented column (or a constant) must fail the check."""
    checker = _load_checker()
    docs = tmp_path / "docs"
    docs.mkdir()
    original = (REPO_ROOT / "docs" / "campaigns.md").read_text()
    (docs / "campaigns.md").write_text(
        original.replace("`mean_energy_j`", "`mean_energy`", 1))
    (docs / "runtable-schema.md").write_text(
        (REPO_ROOT / "docs" / "runtable-schema.md").read_text()
        .replace("`flips_total`", "`flip_total`"))
    monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
    errors: list[str] = []
    checker.check_report_columns(errors)
    assert any("mean_energy" in error for error in errors)
    assert any("mean_energy_j" in error for error in errors)
    assert any("flips_total" in error for error in errors)
