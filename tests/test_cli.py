import os

import pytest

from spchain.cli import EXIT_CONFIG, EXIT_OK, main

GOOD_CONFIG = """
seed = 11
rounds = 6
miner_count = 4
group_size = 3
patient_count = 6
patient_arrival_per_round = 2
upload_rate = 0.5
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(GOOD_CONFIG)
    return str(path)


def test_run_writes_outputs(config_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", config_file, "--out", out]) == EXIT_OK
    for name in ("metrics.csv", "reputation.csv", "summary.txt"):
        assert os.path.exists(os.path.join(out, name))
    metrics = open(os.path.join(out, "metrics.csv")).read()
    assert metrics.startswith("# spchain-metrics v1\n")
    assert "completed 6 rounds" in capsys.readouterr().out


def test_run_is_reproducible_byte_for_byte(config_file, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", config_file, "--out", out1]) == EXIT_OK
    assert main(["run", "--config", config_file, "--out", out2]) == EXIT_OK
    for name in ("metrics.csv", "reputation.csv", "summary.txt"):
        with open(os.path.join(out1, name), "rb") as f1, open(
            os.path.join(out2, name), "rb"
        ) as f2:
            assert f1.read() == f2.read()


def test_seed_override_changes_output(config_file, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["run", "--config", config_file, "--out", out1])
    main(["run", "--config", config_file, "--seed", "99", "--out", out2])
    a = open(os.path.join(out1, "summary.txt")).read()
    b = open(os.path.join(out2, "summary.txt")).read()
    assert a != b


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    for text in (
        "no_such_option = 1\n",
        "scheduler_interval = 0\n",
        "emr_size_bytes = -1\n",
        "creator_share = 1.5\n",
        "consensus_power_fraction = 0.9\n",
        "rep_lambda = 1\n",
        "delivery_shuffle_seed = 1\n",
        "block_size_mb = nan\n",
        "block_size_mb = inf\n",
        "miner_count = 2\npower_shares = nan,1\n",
        "kb_interval_s = inf\n",
    ):
        bad.write_text(text)
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    missing = str(tmp_path / "nope.cfg")
    assert main(["run", "--config", missing, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_attack_subcommand_prints_summary(capsys):
    assert main(["attack", "--type", "selfish"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "adversary_type = selfish" in out
    assert "adversary_reward_share = 0.000000" in out


def test_attack_rejects_unknown_type():
    with pytest.raises(SystemExit):
        main(["attack", "--type", "eclipse"])


def test_bench_subcommand_writes_matrix(tmp_path):
    out = str(tmp_path / "bench")
    code = main(["bench", "--block-sizes", "1,2", "--group-sizes", "3,4", "--out", out])
    assert code == EXIT_OK
    lines = open(os.path.join(out, "bench.csv")).read().splitlines()
    assert lines[1] == "block_size_mb,group_size,keyblock_tps,microblock_tps"
    assert len(lines) == 2 + 4  # header comment + columns + 4 cells


def test_bench_rejects_bad_lists(tmp_path, capsys):
    for flags, named in (
        (["--block-sizes", "x"], "--block-sizes"),
        (["--block-sizes=nan"], "--block-sizes"),
        (["--block-sizes=inf"], "block_size_mb"),
        (["--block-sizes=-inf"], "--block-sizes"),
        (["--group-sizes", "0"], "--group-sizes"),
    ):
        assert main(["bench", *flags, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and named in err
