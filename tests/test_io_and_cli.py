"""Tests for the I/O formats (hypergraph text, SQL front end, DOT export) and
the command-line interface."""

import pytest

from repro.cli import main as cli_main
from repro.decomposition.kdecomp import hypertree_width, k_decomp
from repro.exceptions import HypergraphError, QueryError
from repro.hypergraph.generators import paper_q0_hypergraph
from repro.hypergraph.io import (
    decomposition_to_dot,
    hypergraph_to_text,
    load_hypergraph,
    parse_hypergraph_text,
    query_from_sql,
    save_hypergraph,
)


Q0_TEXT = """
% the paper's Q0
s1(A,B,D), s2(B,C,D), s3(B,E), s4(D,G),
s5(E,F,G), s6(E,H), s7(F,I), s8(G,J).
"""


class TestHypergraphText:
    def test_parse_q0(self):
        h = parse_hypergraph_text(Q0_TEXT)
        assert h == paper_q0_hypergraph()

    def test_roundtrip(self):
        h = paper_q0_hypergraph()
        assert parse_hypergraph_text(hypergraph_to_text(h, comment="Q0")) == h

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "q0.hg"
        save_hypergraph(paper_q0_hypergraph(), str(path), comment="Q0")
        assert load_hypergraph(str(path)) == paper_q0_hypergraph()

    def test_parse_errors(self):
        with pytest.raises(HypergraphError):
            parse_hypergraph_text("")
        with pytest.raises(HypergraphError):
            parse_hypergraph_text("% only a comment")
        with pytest.raises(HypergraphError):
            parse_hypergraph_text("e(A), e(B)")  # duplicate name
        with pytest.raises(HypergraphError):
            parse_hypergraph_text("e()")


class TestSQLFrontend:
    SCHEMAS = {
        "r": ["a", "b"],
        "s": ["b", "c"],
        "t": ["c", "a"],
    }

    def test_triangle_join(self):
        query = query_from_sql(
            "SELECT x.a FROM r x, s y, t z "
            "WHERE x.b = y.b AND y.c = z.c AND z.a = x.a",
            self.SCHEMAS,
            name="triangle",
        )
        assert len(query.atoms) == 3
        assert len(query.output_variables) == 1
        assert hypertree_width(query.hypergraph()) == 2

    def test_boolean_query_with_constant(self):
        query = query_from_sql(
            "SELECT 1 FROM r x, s y WHERE x.b = y.b AND y.c = 7",
            self.SCHEMAS,
        )
        assert query.is_boolean
        s_atom = query.atom_by_name("s")
        assert "7" in s_atom.terms

    def test_select_star(self):
        query = query_from_sql(
            "SELECT * FROM r x, s y WHERE x.b = y.b", self.SCHEMAS
        )
        # a, shared b, c -> three output variables.
        assert len(query.output_variables) == 3

    def test_self_join_aliases(self):
        query = query_from_sql(
            "SELECT x.a FROM r x, r y WHERE x.b = y.a", self.SCHEMAS
        )
        predicates = [a.predicate for a in query.atoms]
        assert predicates == ["r", "r"]
        names = [a.name for a in query.atoms]
        assert len(set(names)) == 2

    def test_errors(self):
        with pytest.raises(QueryError):
            query_from_sql("DELETE FROM r", self.SCHEMAS)
        with pytest.raises(QueryError):
            query_from_sql("SELECT x.a FROM unknown x", self.SCHEMAS)
        with pytest.raises(QueryError):
            query_from_sql("SELECT x.a FROM r x WHERE x.zzz = 1", self.SCHEMAS)
        with pytest.raises(QueryError):
            query_from_sql("SELECT x.a FROM r x WHERE x.a < 3", self.SCHEMAS)
        with pytest.raises(QueryError):
            query_from_sql("SELECT x.a FROM r x WHERE 1 = 1", self.SCHEMAS)

    def test_semantics_against_direct_query(self):
        # The SQL translation evaluates to the same result as the hand-built
        # conjunctive query.
        from repro.db.database import Database
        from repro.db.executor import execute_plan
        from repro.db.plan_ir import join_order_plan_ir
        from repro.db.relation import Relation
        from repro.query.conjunctive import build_query

        db = Database(
            relations={
                "r": Relation("r", ["a", "b"], [(1, 2), (3, 4)]),
                "s": Relation("s", ["b", "c"], [(2, 5), (4, 6)]),
            }
        )
        sql_query = query_from_sql(
            "SELECT x.a, y.c FROM r x, s y WHERE x.b = y.b", self.SCHEMAS
        )
        direct = build_query(
            [("r", ["A", "B"]), ("s", ["B", "C"])], output_variables=["A", "C"]
        )
        sql_answer = execute_plan(join_order_plan_ir(sql_query), db).relation
        direct_answer = execute_plan(join_order_plan_ir(direct), db).relation
        assert set(sql_answer.rows) == set(direct_answer.rows)


class TestDotExport:
    def test_dot_contains_all_nodes_and_edges(self, q0_hypergraph):
        hd = k_decomp(q0_hypergraph, 2)
        dot = decomposition_to_dot(hd)
        assert dot.startswith("digraph")
        for node in hd.nodes():
            assert f"n{node.node_id} " in dot
        assert dot.count("->") == hd.num_nodes() - 1


class TestCLI:
    def test_decompose_query(self, capsys):
        exit_code = cli_main(
            ["decompose", "ans <- r(A,B), s(B,C), t(C,A)", "--taf", "width"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "hypertree width: 2" in out
        assert "minimal decomposition" in out

    def test_decompose_hypergraph_file(self, tmp_path, capsys):
        path = tmp_path / "q0.hg"
        save_hypergraph(paper_q0_hypergraph(), str(path))
        exit_code = cli_main(["decompose", str(path), "--k", "2"])
        assert exit_code == 0
        assert "hypertree width: 2" in capsys.readouterr().out

    def test_plan_command(self, capsys):
        exit_code = cli_main(
            [
                "plan",
                "ans <- r(A,B), s(B,C), t(C,A)",
                "--k",
                "2",
                "--tuples",
                "30",
                "--domain",
                "5",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Hypertree plan" in out
        assert "evaluation work" in out

    def test_plan_with_comparison(self, capsys):
        exit_code = cli_main(
            [
                "plan",
                "ans <- r(A,B), s(B,C)",
                "--k",
                "1",
                "--tuples",
                "20",
                "--domain",
                "4",
                "--compare",
            ]
        )
        assert exit_code == 0
        assert "baseline(left-deep)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            # the algorithm's documented *failure* output: hw(triangle) = 2 > k
            (
                ["decompose", "q(X) :- r(X,Y), s(Y,Z), t(Z,X).", "--k", "1"],
                "no normal-form hypertree decomposition of width <= 1 exists",
            ),
            (
                ["plan", "q(X) :- r(X,Y), s(Y,Z).", "--k", "0"],
                "the width bound k must be at least 1",
            ),
            (["decompose", "q(X :- r("], "cannot parse query head"),
            (["db", "info", "/nonexistent"], "cannot read /nonexistent"),
        ],
    )
    def test_typed_errors_are_one_stderr_line_and_exit_2(self, argv, message, capsys):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and message in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_experiments_fast(self, capsys):
        exit_code = cli_main(["experiments", "--fast"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out
        assert "Example 3.1" in out
        assert "Ψ vs n^k" in out


class TestCLIDb:
    """Smoke tests of the storage-plane subcommands (db save/open/info)."""

    def test_save_info_open_round_trip(self, tmp_path, capsys):
        target = tmp_path / "stored"
        exit_code = cli_main(
            [
                "db",
                "save",
                str(target),
                "--query",
                "ans <- r(A,B), s(B,C)",
                "--tuples",
                "25",
                "--domain",
                "5",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "saved 50 rows in 2 relations" in out
        assert (target / "catalog.json").exists()

        assert cli_main(["db", "info", str(target)]) == 0
        out = capsys.readouterr().out
        assert "relations: 2" in out
        assert "rows: 50" in out
        assert "column bytes:" in out
        assert "dictionary:" in out
        assert "r(A, B): 25 rows" in out

        assert cli_main(["db", "open", str(target), "--rows"]) == 0
        out = capsys.readouterr().out
        assert "r(A, B): 25 tuples" in out
        assert "head:" in out

    def test_info_rejects_non_database_directory(self, tmp_path, capsys):
        assert cli_main(["db", "info", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("repro: error: cannot read")
