"""End-to-end tests for the extended ``repro-fd`` subcommands."""

import pytest

from repro.cli import main


@pytest.fixture
def db(tmp_path):
    path = tmp_path / "db"
    assert main(["init", str(path)]) == 0
    return path


class TestConflicts:
    def test_reports_conflict_counts(self, db, capsys):
        assert main(["conflicts", str(db), "Places"]) == 0
        out = capsys.readouterr().out
        assert "conflicting pair(s)" in out
        assert "violate" in out

    def test_witness_limit(self, db, capsys):
        assert main(["conflicts", str(db), "Places", "--witnesses", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("violate") == 1
        assert "more)" in out

    def test_no_fds(self, tmp_path, capsys):
        path = tmp_path / "e"
        main(["init", str(path)])
        main(["declare", str(path), "Places", "[City] -> [State]"])
        # A fresh relation without FDs:
        csv = tmp_path / "clean.csv"
        csv.write_text("K,V\na,1\nb,2\n")
        main(["import", str(path), str(csv)])
        assert main(["conflicts", str(path), "clean"]) == 0
        assert "no FDs declared" in capsys.readouterr().out

    def test_unknown_relation_fails(self, db, capsys):
        assert main(["conflicts", str(db), "Nope"]) == 1


class TestClean:
    def test_delete_mode_previews_deletions(self, db, capsys):
        assert main(["clean", str(db), "Places", "--mode", "delete"]) == 0
        out = capsys.readouterr().out
        assert "deleted" in out
        assert "would delete rows" in out
        assert "evolves the constraint instead" in out

    def test_update_mode_previews_changes(self, db, capsys):
        assert main(["clean", str(db), "Places", "--mode", "update"]) == 0
        out = capsys.readouterr().out
        assert "cell changes" in out
        assert "->" in out

    def test_clean_does_not_modify_catalog(self, db, capsys):
        from repro.relational.catalog import Catalog

        before = Catalog.load(db).relation("Places").num_rows
        main(["clean", str(db), "Places", "--mode", "delete"])
        assert Catalog.load(db).relation("Places").num_rows == before


class TestAdvise:
    def test_skips_violated_fds(self, db, capsys):
        assert main(["advise", str(db), "Places"]) == 0
        out = capsys.readouterr().out
        assert "repair it first" in out

    def test_recommends_after_evolution(self, db, capsys):
        main(["evolve", str(db), "Places"])
        capsys.readouterr()
        assert main(["advise", str(db), "Places"]) == 0
        out = capsys.readouterr().out
        assert "INDEX ON" in out


class TestKeys:
    def test_lists_candidate_keys(self, db, capsys):
        assert main(["keys", str(db), "Places"]) == 0
        out = capsys.readouterr().out
        assert "candidate key(s)" in out
        assert "{" in out

    def test_keyless_relation_defaults_to_all_attributes(self, db, tmp_path, capsys):
        csv = tmp_path / "kv.csv"
        csv.write_text("K,V\na,1\nb,2\n")
        main(["import", str(db), str(csv)])
        capsys.readouterr()
        assert main(["keys", str(db), "kv"]) == 0
        out = capsys.readouterr().out
        assert "{K, V}" in out


class TestNormalize:
    def test_bcnf_fragments(self, db, capsys):
        assert main(["normalize", str(db), "Places", "--form", "bcnf"]) == 0
        out = capsys.readouterr().out
        assert "BCNF fragments" in out
        assert "(" in out

    def test_3nf_preserves_dependencies(self, db, capsys):
        assert main(["normalize", str(db), "Places", "--form", "3nf"]) == 0
        out = capsys.readouterr().out
        assert "3NF fragments" in out
        assert "all dependencies preserved" in out

    def test_no_fds_message(self, db, tmp_path, capsys):
        csv = tmp_path / "kv.csv"
        csv.write_text("K,V\na,1\nb,2\n")
        main(["import", str(db), str(csv)])
        capsys.readouterr()
        assert main(["normalize", str(db), "kv"]) == 0
        assert "nothing to normalize" in capsys.readouterr().out


class TestMine:
    def test_mines_constraints(self, db, capsys):
        assert main(["mine", str(db), "Places", "--max-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "mined" in out
        assert "110 pairs" in out

    def test_fds_only_filter(self, db, capsys):
        assert main(["mine", str(db), "Places", "--max-size", "2", "--fds-only"]) == 0
        out = capsys.readouterr().out
        # Every shown line is an FD, not a raw DC.
        body = [l for l in out.splitlines() if l.startswith("  ")]
        assert body
        assert all("->" in line for line in body)
        assert all("not(" not in line for line in body)

    def test_tiled_engine_is_exact_despite_budget(self, db, capsys):
        # Sample-then-verify refines until every mined DC is proven on
        # the full instance: a 5-pair budget mines what the full one does.
        assert main(["mine", str(db), "Places", "--max-pairs", "5"]) == 0
        budgeted = capsys.readouterr().out
        assert main(["mine", str(db), "Places"]) == 0
        full = capsys.readouterr().out
        assert sorted(budgeted.splitlines()) == sorted(full.splitlines())
