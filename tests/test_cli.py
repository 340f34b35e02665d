"""Tests for the experiment CLI (fast experiments only)."""

import json

import pytest

from repro.cli import EXPERIMENTS, Block, main


class TestBlock:
    def test_render_and_json(self):
        block = Block("Title", ["a", "b"], [[1, 2]])
        text = block.render()
        assert "Title" in text and "1" in text
        payload = block.to_json()
        assert payload["headers"] == ["a", "b"]
        assert payload["rows"] == [[1, 2]]


class TestRegistry:
    def test_every_paper_table_and_figure_has_an_experiment(self):
        expected = {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "table7", "table8", "table9", "table10",
            "fig5a", "fig5b", "fig6", "fig7", "fig8", "fig9",
        }
        assert expected <= set(EXPERIMENTS)

    def test_ablations_registered(self):
        assert {
            "ablate-t", "ablate-chunk", "ablate-base", "ablate-hash",
        } <= set(EXPERIMENTS)

    def test_hash_ablation_shows_degradation(self, capsys):
        assert main(["ablate-hash"]) == 0
        out = capsys.readouterr().out
        assert "identity-hash" in out

    def test_descriptions_nonempty(self):
        for name, (runner, description) in EXPERIMENTS.items():
            assert callable(runner)
            assert description


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out and "fig9" in out

    def test_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_fast_experiment_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "SMB" in out and "query bits" in out

    def test_theory_experiments_run(self, capsys):
        for name in ("table2", "table3", "fig5a", "fig5b"):
            assert main([name]) == 0
        out = capsys.readouterr().out
        assert "delta" in out

    def test_json_to_stdout(self, capsys):
        assert main(["table1", "--json", "-"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert "table1" in payload
        assert payload["table1"][0]["headers"][0] == "estimator"

    def test_json_to_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert main(["table3", "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert "table3" in payload


class TestSizeValidation:
    """Out-of-range sizes exit with a one-line message, never a
    traceback (engine) or a server whose every RECORD fails (serve)."""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--chunk", "0", "--chunk must be >= 1"),
            ("--queue-depth", "0", "--queue-depth must be >= 1"),
            ("--items", "-5", "--items must be >= 0"),
        ],
    )
    def test_engine_rejects(self, flag, value, message):
        with pytest.raises(SystemExit, match=f"^{message}$"):
            main(["engine", flag, value])

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--chunk", "--chunk must be >= 1"),
            ("--queue-depth", "--queue-depth must be >= 1"),
        ],
    )
    def test_serve_rejects_before_binding(self, monkeypatch, flag, message):
        import repro.serve.cli as serve_cli

        async def must_not_start(args):
            raise AssertionError("server started with an invalid size")

        monkeypatch.setattr(serve_cli, "_run", must_not_start)
        with pytest.raises(SystemExit, match=f"^{message}$"):
            main(["serve", "--port", "0", flag, "0"])
