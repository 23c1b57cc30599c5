"""Command-line behavior: formats, data flags, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import DATA, child_env
from lexsel import (
    SelectionConfig,
    VocabularyGapError,
    bundled,
    cli,
    load_corpus,
    to_argument_structure,
    translate,
)
from lexsel.cli import main


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestSim:
    def test_text(self, capsys):
        code, out = run(capsys, "sim", "%change-of-integrity", "%separate-in-duan-state")
        assert code == 0
        assert "0.800000 (4/5)" in out
        assert "lcs = %change-of-integrity" in out

    def test_json(self, capsys):
        code, out = run(capsys, "sim", "vase", "cup", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["similarity_exact"] == "4/5"
        assert doc["lcs"] == "entity:brittle-object"
        assert (doc["n1"], doc["n2"], doc["n3"]) == (1, 1, 4)

    def test_tsv(self, capsys):
        code, out = run(capsys, "sim", "vase", "cup", "--format", "tsv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split("\t")[0] == "concept1"
        assert row.split("\t")[3] == "4/5"

    def test_qualified_names(self, capsys):
        code, out = run(capsys, "sim", "entity:branch", "entity:stick")
        assert code == 0

    def test_unknown_concept_exits_2(self, capsys):
        code, _ = run(capsys, "sim", "unicorn", "vase")
        assert code == 2

    def test_cross_domain_exits_2(self, capsys):
        code, _ = run(capsys, "sim", "vase", "%cause")
        assert code == 2


class TestSelect:
    def test_text_ranking(self, capsys):
        code, out = run(capsys, "select", "--lexeme", "break", "--e1", "branch-1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "translation: duan-la (to separate in line-segment shape)"
        assert lines[1].startswith("1. duan-la")
        assert len(lines) == 8  # translation line + 7 candidates

    def test_tree_changes_the_pick(self, capsys):
        _, with_tree = run(
            capsys, "select", "--lexeme", "break", "--e0", "john-1", "--e1", "stick-1"
        )
        _, without = run(
            capsys,
            "select", "--lexeme", "break", "--e0", "john-1", "--e1", "stick-1",
            "--no-tree",
        )
        assert with_tree.splitlines()[0].startswith("translation: zhe-duan")
        assert without.splitlines()[0].startswith("translation: duan-cheng")

    def test_marker_flag(self, capsys):
        code, out = run(
            capsys,
            "select", "--lexeme", "break", "--e0", "john-1", "--e1", "stick-1",
            "--marker", "into-pieces",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("translation: da-sui")

    def test_json_payload(self, capsys):
        code, out = run(
            capsys, "select", "--lexeme", "break", "--e1", "branch-1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["translation"] == "duan-la"
        assert doc["source_sense"] == "BREAK-1"
        assert doc["decided_action"] == "%action"
        assert doc["inter_rep"] == ["ch-of-state (%change-of-integrity branch-1)"]
        assert [c["sense_id"] for c in doc["candidates"]][:2] == ["duan-la", "da-sui"]
        assert doc["candidates"][0]["concept_score_exact"] == "4/5"

    def test_tsv_rows(self, capsys):
        code, out = run(
            capsys, "select", "--lexeme", "break", "--e1", "branch-1", "--format", "tsv"
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0].split("\t") == [
            "rank", "lexeme", "sense_id", "concept", "constraint", "via", "neighborhood",
        ]
        assert len(rows) == 8

    def test_explain_mentions_constraints(self, capsys):
        code, out = run(
            capsys, "select", "--lexeme", "break", "--e1", "branch-1", "--explain"
        )
        assert code == 0
        assert "source sense: BREAK-1" in out
        assert "domain ch-of-state" in out
        assert "constraint (is-a line-segment-object E1)" in out

    def test_explain_a_candidate_without_constraints(self, capsys, tmp_path):
        doc = json.loads(bundled.bundled_text(bundled.LEXICON_FILE))
        for sense in doc["senses"]:
            if sense["sense_id"] == "duan-la":
                del sense["constraints"]
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps(doc))
        code, out = run(
            capsys, "select", "--lexeme", "break", "--e1", "branch-1", "--explain",
            "--lexicon", str(lexicon),
        )
        assert code == 0
        lines = out.splitlines()
        start = lines.index(next(line for line in lines if line.startswith("candidate duan-la")))
        assert lines[start + 2] == "  no constraints: constraint score 1"
        assert lines.count("  no constraints: constraint score 1") == 1

    def test_vocabulary_gap_exits_1(self, capsys):
        code, _ = run(
            capsys, "select", "--lexeme", "break", "--e1", "branch-1", "--floor", "0.81"
        )
        assert code == 1

    def test_unknown_lexeme_exits_2(self, capsys):
        code, _ = run(capsys, "select", "--lexeme", "evaporate", "--e1", "vase-1")
        assert code == 2

    def test_unbound_patient_exits_2(self, capsys):
        code, _ = run(capsys, "select", "--lexeme", "break", "--e0", "john-1")
        assert code == 2

    @pytest.mark.parametrize("order", ["e0-first", "e1-first"])
    def test_unknown_mentions_are_reported_in_role_order(self, capsys, order):
        flags = [["--e0", "unicorn-1"], ["--e1", "griffin-1"]]
        if order == "e1-first":
            flags.reverse()
        code = main(["select", "--lexeme", "break", *flags[0], *flags[1]])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: mention 'unicorn-1' does not name a concept in domain 'entity'\n"
        )

    @pytest.mark.parametrize("role", ["--e0", "--e1"])
    def test_empty_mention_exits_2(self, capsys, role):
        assert main(["select", "--lexeme", "break", "--e1", "branch-1", role, ""]) == 2
        assert "bad entity mention ''" in capsys.readouterr().err

    def test_bad_floor_exits_2(self, capsys):
        code, _ = run(
            capsys, "select", "--lexeme", "break", "--e1", "vase-1", "--floor", "1.5"
        )
        assert code == 2

    def test_bad_max_candidates_exits_2(self, capsys):
        code, _ = run(
            capsys,
            "select", "--lexeme", "break", "--e1", "vase-1", "--max-candidates", "0",
        )
        assert code == 2

    def test_weights_file(self, capsys, tmp_path):
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"causation": 4, "default": 1}))
        code, out = run(
            capsys,
            "select", "--lexeme", "break", "--e0", "john-1", "--e1", "stick-1",
            "--weights", str(weights), "--no-tree", "--format", "tsv",
        )
        assert code == 0
        # shares 1/5 and 4/5: causatives score 4/25 + 4/5, the plain verb 4/25
        concept = {
            row.split("\t")[1]: row.split("\t")[3]
            for row in out.strip().splitlines()[1:]
        }
        assert concept["zhe-duan"] == "24/25"
        assert concept["duan-la"] == "4/25"

    def test_weight_for_unknown_domain_exits_2(self, capsys, tmp_path):
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"causaton": 4}))
        code = main(["select", "--lexeme", "break", "--e1", "stick-1", "--weights", str(weights)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {weights}: no loaded taxonomy defines domain 'causaton'\n"


def bundled_records():
    return [
        record
        for name in (bundled.CORPUS_FILE, bundled.COUNTS_FILE)
        for record in load_corpus(bundled.bundled_text(name)).records
    ]


class TestSelectBuildsTheEvalClause:
    """``select`` on a record's mentions and markers ranks what ``eval`` ranks for it."""

    RECORDS = bundled_records()

    def test_every_bundled_record_is_covered(self):
        assert len(self.RECORDS) == 162

    @pytest.mark.parametrize("floor", [None, "0.81"], ids=["default-floor", "gap-floor"])
    def test_select_matches_translate_on_the_record_clause(
        self, capsys, store, lexicon, tree, floor
    ):
        config = SelectionConfig() if floor is None else SelectionConfig(floor=Fraction(floor))
        gaps = 0
        for record in self.RECORDS:
            argv = ["select", "--format", "json", "--lexeme", record.source_lexeme]
            for role, mention in record.bindings:
                argv += [f"--{role.value.lower()}", mention]
            for marker in record.context:
                argv += ["--marker", marker]
            if floor is not None:
                argv += ["--floor", floor]
            code = main(argv)
            out = capsys.readouterr().out
            args = to_argument_structure(record, store, lexicon.nominal_domain)
            try:
                expected = translate(lexicon, store, args, config, tree)
            except VocabularyGapError:
                assert code == 1, record.id
                gaps += 1
                continue
            assert code == 0, record.id
            doc = json.loads(out)
            action = expected.decided_action
            assert doc["source_sense"] == expected.source_sense, record.id
            assert doc["decided_action"] == (None if action is None else action.name)
            assert [
                (c["sense_id"], c["concept_score_exact"], c["constraint_score_exact"],
                 c["via_concept"], c["neighborhood_sim_exact"])
                for c in doc["candidates"]
            ] == [
                (r.sense_id, str(r.score.concept_score), str(r.score.constraint_score),
                 str(r.via_concept), str(r.neighborhood_sim))
                for r in expected.ranking
            ], record.id
        assert (gaps > 0) == (floor is not None)


class TestEval:
    def test_text_summary(self, capsys):
        code, out = run(capsys, "eval")
        assert code == 0
        assert "accuracy: 12/12 = 1.000000" in out
        assert out.count("ok ") == 12

    def test_json_is_consistent(self, capsys):
        code, out = run(capsys, "eval", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == 12
        assert doc["correct"] == sum(1 for item in doc["items"] if item["match"])
        assert doc["accuracy"] == 1.0

    def test_tsv_rows_recompute(self, capsys):
        code, out = run(capsys, "eval", "--format", "tsv")
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 12
        assert all(predicted == gold for _, predicted, gold, _ in rows)

    def test_custom_corpus_file(self, capsys, tmp_path):
        corpus = tmp_path / "tiny.jsonl"
        record = {
            "id": "x1",
            "source_lexeme": "break",
            "bindings": {"E1": "vase-1"},
            "context": [],
            "gold": "da-sui",
        }
        corpus.write_text(json.dumps(record) + "\n")
        code, out = run(capsys, "eval", "--corpus", str(corpus))
        assert code == 0
        assert "accuracy: 1/1" in out

    def test_clause_error_names_the_record_and_exits_2(self, capsys, tmp_path):
        from lexsel.bundled import CORPUS_FILE, bundled_text

        bad = {
            "id": "bad-9",
            "source_lexeme": "break",
            "bindings": {"E0": "john-1"},
            "context": [],
            "gold": "da-sui",
        }
        corpus = tmp_path / "bad.jsonl"
        head = bundled_text(CORPUS_FILE).splitlines()[:4]  # the header and three records
        corpus.write_text("\n".join(head + [json.dumps(bad)]) + "\n")
        code = main(["eval", "--corpus", str(corpus)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 5: record 'bad-9': slot ch-of-state (%change-of-integrity E1) "
            "needs role E1 but it is not bound\n"
        )

    def test_missing_corpus_file_exits_2(self, capsys):
        code, _ = run(capsys, "eval", "--corpus", "/no/such/file.jsonl")
        assert code == 2

    @pytest.mark.parametrize(
        "flag", ["--taxonomy", "--lexicon", "--tree", "--weights", "--corpus"]
    )
    def test_non_utf8_data_file_exits_2(self, capsys, tmp_path, flag):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff")
        code = main(["eval", flag, str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "not UTF-8" in err and str(bad) in err

    @pytest.mark.parametrize(
        "flag", ["--taxonomy", "--lexicon", "--tree", "--weights", "--corpus"]
    )
    def test_huge_integer_in_data_file_exits_2(self, capsys, tmp_path, flag):
        bad = tmp_path / "huge.json"
        bad.write_text("1" * 5000)
        code = main(["eval", flag, str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "is not valid JSON: Exceeds the limit" in err


class TestFreq:
    def test_bundled_default_corpus(self, capsys):
        code, out = run(capsys, "freq")
        assert code == 0
        assert out.splitlines()[1].split("\t")[1] == "da-sui"

    def test_counts_fixture(self, capsys):
        from lexsel.bundled import COUNTS_FILE

        code, out = run(capsys, "freq", "--corpus", os.path.join(DATA, COUNTS_FILE))
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert rows[1] == ["1", "dasui", "107"]
        assert rows[-1] == ["total", "-", "150"]

    def test_corpus_without_records_exits_2(self, capsys, tmp_path):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text('{"markers": []}\n')
        assert main(["freq", "--corpus", str(corpus)]) == 2
        assert capsys.readouterr().err == "error: corpus has no records to count\n"

    def test_json(self, capsys):
        code, out = run(capsys, "freq", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == 12
        assert doc["rows"][0]["lexeme"] == "da-sui"


class TestArgparseBehavior:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["sim", "vase", "cup", "--bogus"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [["select", "--lexeme", "break"], ["eval"]])
    def test_help_states_the_selection_defaults(self, capsys, argv):
        ns = cli._build_parser().parse_args(argv)
        assert (ns.floor, ns.max_candidates) == (
            SelectionConfig().floor,
            SelectionConfig().max_candidates,
        )
        with pytest.raises(SystemExit) as err:
            main([argv[0], "--help"])
        assert err.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())  # undo line wrapping
        assert "similarity floor (default: 0.5)" in help_text
        assert "size limit (default: 10)" in help_text

    def test_non_numeric_floor_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["select", "--lexeme", "break", "--e1", "vase-1", "--floor", "high"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sim", "vase", "cup", "--lexicon", "/no/such"],
            ["freq", "--taxonomy", "/no/such"],
            ["freq", "--lexicon", "/no/such"],
        ],
        ids=["sim-lexicon", "freq-taxonomy", "freq-lexicon"],
    )
    def test_data_flag_the_subcommand_never_reads_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert f"unrecognized arguments: {argv[-2]} /no/such" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["select", "--lexeme", "break", "--e1", "branch-1"], ["eval"]]
    )
    def test_tree_and_no_tree_together_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--tree", "/nonexistent", "--no-tree"])
        assert err.value.code == 2
        assert "not allowed with argument --tree" in capsys.readouterr().err

    def test_a_command_patched_after_the_first_call_still_runs(self, capsys, monkeypatch):
        # the parser is built once per process; the command is looked up per call
        assert run(capsys, "freq")[0] == 0
        calls = []
        real = cli.cmd_freq
        monkeypatch.setattr(cli, "cmd_freq", lambda ns: calls.append(ns.command) or real(ns))
        assert run(capsys, "freq")[0] == 0
        assert calls == ["freq"]

    @pytest.mark.parametrize("floor", ["inf", "1e999999999", "1e-999999999"])
    def test_non_finite_or_huge_floor_exits_2_at_once(self, capsys, floor):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as err:
            main(["select", "--lexeme", "break", "--e1", "vase-1", "--floor", floor])
        assert err.value.code == 2
        assert time.perf_counter() - start < 1
        assert f"argument --floor: {floor!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--lexeme", "break", "--e1", "branch-1", "--taxonomy", ""],
            ["select", "--lexeme", "break", "--e1", "branch-1", "--lexicon", ""],
            ["select", "--lexeme", "break", "--e1", "branch-1", "--tree", ""],
            ["select", "--lexeme", "break", "--e1", "branch-1", "--weights", ""],
            ["sim", "vase", "cup", "--taxonomy", ""],
            ["eval", "--lexicon", ""],
            ["eval", "--corpus", ""],
            ["freq", "--corpus", ""],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_empty_data_path_exits_2_naming_the_flag(self, capsys, argv):
        # an empty path once fell back to the bundled file, or read the working directory
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument {argv[-2]}: empty path\n")


BATTERY = [
    ["sim", "%change-of-integrity", "%separate-in-pieces-state", "--format", "json"],
    ["select", "--lexeme", "break", "--e1", "branch-1", "--format", "tsv"],
    ["select", "--lexeme", "break", "--e0", "john-1", "--e1", "stick-1", "--explain"],
    ["eval", "--format", "json"],
    ["freq", "--format", "tsv"],
]


class TestModuleEntryPoint:
    def run_module(self, argv) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "lexsel", *argv], capture_output=True, timeout=60,
            env=child_env(),
        )

    def test_exit_codes_through_the_interpreter(self):
        assert self.run_module(["eval"]).returncode == 0
        gap = ["select", "--lexeme", "break", "--e1", "branch-1", "--floor", "0.9"]
        assert self.run_module(gap).returncode == 1
        assert self.run_module(["sim", "vase"]).returncode == 2

    @pytest.mark.parametrize(
        "argv", [["eval"], ["select", "--lexeme", "break", "--e1", "branch-1", "--format", "json"]]
    )
    def test_closed_stdout_exits_141_without_an_error(self, argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "lexsel", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=child_env(),
        )
        proc.stdout.close()  # long before the child writes: its first write finds no reader
        _, stderr = proc.communicate(timeout=60)
        assert (proc.returncode, stderr) == (141, b"")

    def test_output_is_byte_identical_across_runs(self):
        for argv in BATTERY:
            first = self.run_module(argv)
            second = self.run_module(argv)
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout


# sha256 of "<exit code>\0<stdout>\0<stderr>" for each command: a change to
# any byte of any format, or of an error message, fails.
OUTPUT_SHA256 = {
    "sim-text": (
        ["sim", "vase", "cup"],
        "125d22d4ed3c4682211a4a1b5479086697987b36bc600670e3d999c629186b81",
    ),
    "sim-json": (
        ["sim", "vase", "cup", "--format", "json"],
        "105eb19cd6f612bb243465aa364f0de1bec3ad08e7d564669c4763f15dc96670",
    ),
    "sim-tsv": (
        ["sim", "%change-of-integrity", "%separate-in-duan-state", "--format", "tsv"],
        "035123a4b6f6499c145e3bffb1e342076d5558aae0f248f3fda9508f67e7f3dd",
    ),
    "select-text": (
        ["select", "--lexeme", "break", "--e1", "branch-1"],
        "8fa8eb336c96f36b4ff554ba36cbeff1756827efe41f4dd78dc50c7c1ebcd88f",
    ),
    "select-json": (
        ["select", "--lexeme", "break", "--e1", "branch-1", "--format", "json"],
        "0946db7487e492a798882fc219b258478f6bf262fc862acce3086b4c91100908",
    ),
    "select-tsv": (
        ["select", "--lexeme", "break", "--e1", "branch-1", "--format", "tsv"],
        "1c14277d9297bddb4a9aef9d10624fbf8c9b0c300762c93b8373f05006183776",
    ),
    "select-explain": (
        ["select", "--lexeme", "break", "--e0", "john-1", "--e1", "stick-1", "--explain"],
        "27a2ef4da6d98735db4129efd719473944dd47fc731b41658cbdd83dcef6ed66",
    ),
    "select-explain-widened": (
        ["select", "--lexeme", "hit", "--e0", "bonds-1", "--e1", "price-peak-1", "--explain"],
        "d0cb2e99c4a38e26ed8591e0f1c9675d168dfb96925a2d6111778f534373217c",
    ),
    "select-no-tree": (
        ["select", "--lexeme", "break", "--e0", "john-1", "--e1", "stick-1", "--no-tree"],
        "4d562c56c41faf31b9d76f85eb9e1b12af8a83b0b80ba1e77ab39a15a26b69ad",
    ),
    "select-no-tree-explain-json": (
        ["select", "--lexeme", "break", "--e1", "vase-1", "--no-tree", "--explain", "--format",
         "json"],
        "af9c1a5cc532ecb9549e7254ed28f5e9907265fb284c4473b558ecf9b8702547",
    ),
    "select-explain-tsv-limited": (
        ["select", "--lexeme", "hit", "--e0", "bonds-1", "--e1", "price-peak-1", "--explain",
         "--floor", "0.3", "--max-candidates", "3", "--format", "tsv"],
        "c9ee7602c95da91e87db43f59782c47e0ef415fad47693aff408474427c3f508",
    ),
    "eval-text": (
        ["eval"],
        "7cdd1f4c04e27c8f124566bf14bb559ffa870c05e56aaf86ffc4d4e051e56ac2",
    ),
    "eval-text-misses": (
        ["eval", "--no-tree"],
        "4b02b19b5a66174e14431e1ed548aa424c3460cb012faab33e1ed6748b56cf4c",
    ),
    "eval-json": (
        ["eval", "--no-tree", "--format", "json"],
        "1547cab101f0050b925e63b14155e0f2f97aa82e055c88b447973ad7141924c3",
    ),
    "eval-tsv": (
        ["eval", "--no-tree", "--format", "tsv"],
        "8bc54d2f9fc3cc1a97b2f76a6a2d19b31a7acd79a57be6ec21fc40d0c46e1beb",
    ),
    "freq-text": (
        ["freq"],
        "42f0965bc65013154d4332fde30f6b7621edcd27a0b7972e9f98a68cdb313bd0",
    ),
    "freq-json": (
        ["freq", "--format", "json"],
        "83e3708de0676f836c0e4a7151c549f8d84de3e02232a2348689bef54d993be9",
    ),
    "freq-tsv": (
        ["freq", "--format", "tsv"],
        "afe6d0d128f4ee8c7fe238cab3636e6aa89f7cf243c00fbcd2db035923e93e34",
    ),
    "gap": (
        ["select", "--lexeme", "break", "--e1", "branch-1", "--floor", "0.81"],
        "82dea8a3f153221ad02e21b9b65d2536881ec671183bf2bb431e3fa4559c9e5e",
    ),
    "data-error": (
        ["select", "--lexeme", "evaporate", "--e1", "vase-1"],
        "ce57164de9f4c760c3339875b1c97e20ac9710feaa36fe64a2f3192d5b1f4b40",
    ),
}


@pytest.mark.parametrize("name", sorted(OUTPUT_SHA256))
def test_output_bytes(capsys, name):
    argv, digest = OUTPUT_SHA256[name]
    code = main(argv)
    captured = capsys.readouterr()
    blob = f"{code}\0{captured.out}\0{captured.err}".encode()
    assert hashlib.sha256(blob).hexdigest() == digest
