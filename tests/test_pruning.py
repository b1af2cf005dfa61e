"""Ingest parses only the columns a plan reads (``plans.required_columns``),
still checks every other cell, and leaves the plan's output unchanged."""

import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from assemblage_shapley import (
    Assignment,
    AssignmentScenario,
    EquiJoin,
    IngestError,
    NaturalJoin,
    PlanError,
    Project,
    Scan,
    Union,
    bench,
    evaluate_plan,
    load_assignment,
    write_assignment,
)
from assemblage_shapley.cli import main
from assemblage_shapley.engine import coalition_to_dict
from assemblage_shapley.plans import plan_to_json, required_columns

from helpers import RANDOM_SCHEMAS, RANDOM_TYPES, random_owned_tables, random_plan

_CAT = ("id", "cls", "price")


def _write(tables, n_owners, outdir):
    assignment = Assignment(tuple(tables), n_owners, {}, AssignmentScenario())
    return write_assignment(assignment, outdir, types=RANDOM_TYPES)


def _coalition_text(plan, tables, n_owners) -> str:
    return json.dumps(coalition_to_dict(evaluate_plan(plan, tables, n_owners=n_owners)))


def _assert_pruned_output_identical(plan, manifest):
    full, n_owners, _ = load_assignment(manifest)
    pruned, pruned_n, _ = load_assignment(manifest, plan=plan)
    assert pruned_n == n_owners
    assert [(t.table, t.owner, t.schema) for t in pruned] == [
        (t.table, t.owner, t.schema) for t in full
    ]
    assert _coalition_text(plan, pruned, n_owners) == _coalition_text(plan, full, n_owners)
    return pruned


# --- required_columns ---------------------------------------------------------------

def test_required_columns_drops_price_on_the_union_workload_plan():
    plan = Union((Project(Scan("cat_a"), ("id", "cls")), Project(Scan("cat_b"), ("id", "cls"))))
    reads = required_columns(plan, {"cat_a": _CAT, "cat_b": _CAT})
    assert reads == {"cat_a": {0, 1}, "cat_b": {0, 1}}


def test_required_columns_reads_every_column_of_the_c7_plan():
    plan = Project(NaturalJoin(Scan("facts"), Scan("dims")), ("pk", "attr"))
    reads = required_columns(plan, {"facts": ("pk", "fk"), "dims": ("fk", "attr")})
    assert reads == {"facts": {0, 1}, "dims": {0, 1}}


def test_required_columns_follows_filters_keys_renames_and_repeated_scans():
    catalog = {"a": ("k", "v", "p"), "b": ("k", "w", "p")}
    # an unread left p beside a read right p_r; the left filter column is read
    plan = Project(
        EquiJoin(Scan("a", (("v", "v1"),)), Scan("b"), (("k", "k"),)), ("w", "p_r")
    )
    assert required_columns(plan, catalog) == {"a": {0, 1}, "b": {0, 1, 2}}
    # a table scanned twice reads the union of both scans' columns
    twice = Union((Project(Scan("a"), ("k",), ("x",)), Project(Scan("a"), ("p",), ("x",))))
    assert required_columns(twice, catalog) == {"a": {0, 2}}
    # a bare scan reads every column; an unscanned table is not listed
    assert required_columns(Scan("b"), catalog) == {"b": {0, 1, 2}}


def test_required_columns_raises_the_layout_plan_error():
    with pytest.raises(PlanError, match="projected attribute 'nope'"):
        required_columns(Project(Scan("a"), ("nope",)), {"a": ("k",)})


# --- pruned and unpruned evaluation agree -------------------------------------------

def test_pruned_ingest_gives_byte_identical_coalition_sets_on_random_plans(tmp_path):
    pruned_somewhere = unscanned = 0
    for seed in range(150):
        rng = Random(seed)
        tables = random_owned_tables(rng)
        plan = random_plan(rng)
        manifest = _write(tables, 5, tmp_path / str(seed))
        pruned = _assert_pruned_output_identical(plan, manifest)
        reads = required_columns(plan, RANDOM_SCHEMAS)
        unscanned += len(reads) < len(RANDOM_SCHEMAS)
        pruned_somewhere += any(len(cols) < len(RANDOM_SCHEMAS[t]) for t, cols in reads.items())
        for t in pruned:
            unread = set(range(len(t.schema))) - reads.get(t.table, set())
            assert all(row[i] is None for row in t.rows for i in unread)
    # the plans exercise both kinds of pruning, not only full reads
    assert pruned_somewhere > 30 and unscanned > 30


@pytest.mark.parametrize(
    "plan",
    [
        # the left p collides with the right p, which becomes p_r; only p_r is read
        Project(EquiJoin(Scan("a"), Scan("b"), (("k", "k"),)), ("k", "w", "p_r")),
        Scan("a"),
    ],
    ids=["equi-join-r-collision", "bare-scan"],
)
def test_pruned_ingest_by_hand(tmp_path, plan):
    for seed in range(20):
        manifest = _write(random_owned_tables(Random(seed)), 5, tmp_path / str(seed))
        _assert_pruned_output_identical(plan, manifest)


# --- skipped cells are still checked --------------------------------------------------

def _raises(fn, raw) -> bool:
    try:
        fn(raw)
    except (ValueError, ZeroDivisionError):
        return True
    return False


#: Texts close to numbers: signs, underscores, non-ASCII digits, spaced
#: slashes, signed denominators, points and small exponents.
_NEAR_NUMBERS = st.from_regex(
    r"\s*[+-]?[0-9_٣３]{0,4}(\s*/\s*[+-]?|\.)?[0-9_]{0,3}(e[+-]?[0-9])?\s*", fullmatch=True
)


@given(st.one_of(st.text(), _NEAR_NUMBERS))
@example("1/0")
@example("3 / 4")
@example("3/-4")
@example("+3/4 ")
@example("1.5e3")
@example("1_000")
@example("x")
@example("")
@example("٣/٤")
@example("３")
@example("007/000")
@example("9" * 4300)  # int's default limit on digits
@example("9" * 4301)
@example("-" + "9" * 4301)
@example("1/" + "0" * 4300 + "7")  # a 4 301-digit denominator, leading zeros counted
@example("7" * 601)  # past _PLAIN_DECIMAL's bound, so Fraction decides
def test_a_skipped_cell_is_accepted_exactly_when_it_parses(raw):
    for kind, parse in bench.CELL_PARSERS.items():
        assert _raises(lambda r: bench._check_column(kind, [r]), raw) == _raises(parse, raw)


def _catalogue_manifest(tmp_path, rows: str):
    (tmp_path / "cat0.csv").write_text("id,cls,price\n" + rows)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"n_owners": 1, "tables": {"cat": {
        "schema": list(_CAT),
        "types": {"id": "integer", "price": "decimal"},
        "owners": {"0": "cat0.csv"},
    }}}))
    return manifest


@pytest.mark.parametrize("bad", ["1/0", "abc", "1/-2"])
def test_a_bad_cell_in_a_projected_away_column_is_still_an_ingest_error(tmp_path, capsys, bad):
    manifest = _catalogue_manifest(tmp_path, f"1,c1,3/2\n2,c2,{bad}\n")
    plan = Project(Scan("cat"), ("id",))
    assert required_columns(plan, {"cat": _CAT}) == {"cat": {0}}
    with pytest.raises(IngestError, match=rf"cannot parse '{bad}' as decimal") as exc_info:
        load_assignment(manifest, plan=plan)
    assert (exc_info.value.path, exc_info.value.line) == (str(tmp_path / "cat0.csv"), 3)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(plan_to_json(plan))
    argv = ["assemble", "--manifest", str(manifest), "--plan", str(plan_path)]
    assert main(argv + ["--out", str(tmp_path / "c.json")]) == 2
    assert capsys.readouterr().err == f"error: {exc_info.value}\n"


def test_a_skipped_integer_cell_is_still_checked(tmp_path):
    manifest = _catalogue_manifest(tmp_path, "1,c1,3/2\nx,c2,1\n")
    with pytest.raises(IngestError, match=r"cannot parse 'x' as integer .*cat0.csv:3\]"):
        load_assignment(manifest, plan=Project(Scan("cat"), ("cls",)))


def test_pruned_rows_keep_their_width_and_parse_the_read_cells(tmp_path):
    manifest = _catalogue_manifest(tmp_path, "1,c1,3/2\n1,c1,1.50\n2, c2 ,7\n")
    (full,), _, _ = load_assignment(manifest)
    assert full.rows == (
        (1, "c1", Fraction(3, 2)), (1, "c1", Fraction(3, 2)), (2, "c2", Fraction(7))
    )
    (pruned,), _, _ = load_assignment(manifest, plan=Project(Scan("cat"), ("cls",)))
    assert pruned.schema == _CAT
    assert pruned.rows == ((None, "c1", None), (None, "c1", None), (None, "c2", None))


@pytest.mark.parametrize(
    "plan, message",
    [
        (Project(Scan("cat"), ("nope",)), "projected attribute 'nope'"),
        (Scan("cat", (("nope", 1),)), "filter attribute 'nope'"),
        (Scan("dog"), "unknown table 'dog'"),
    ],
    ids=["projection", "filter", "table"],
)
def test_a_plan_that_does_not_fit_is_refused_before_any_owner_file_is_opened(
    tmp_path, plan, message
):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"n_owners": 1, "tables": {"cat": {
        "schema": list(_CAT), "owners": {"0": "missing.csv"},
    }}}))
    with pytest.raises(PlanError, match=message):
        load_assignment(manifest, plan=plan)
    with pytest.raises(FileNotFoundError):
        load_assignment(manifest, plan=Scan("cat"))
