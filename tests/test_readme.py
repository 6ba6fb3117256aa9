"""README.md's examples: every CLI synopsis line parses and every Python
block runs, so the documentation cannot drift from the code."""
import argparse
import os
import re
import shlex

import pytest

from weatherlpr import cli
from weatherlpr.bench import make_synthetic_world
from weatherlpr.pointcloud import write_scan

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def blocks(lang):
    with open(README) as fh:
        return re.findall(rf"```{lang}\n(.*?)```", fh.read(), re.S)


SYNOPSIS = [line for block in blocks("sh") for line in block.splitlines()
            if line.startswith("weatherlpr ")]


def test_synopsis_covers_every_command():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(line.split()[1] for line in SYNOPSIS) == sorted(sub.choices)


@pytest.mark.parametrize("line", SYNOPSIS, ids=[line.split()[1] for line in SYNOPSIS])
def test_synopsis_line_parses(line):
    # placeholders such as <scan-dir> stand for any path
    argv = shlex.split(re.sub(r"<[^>]+>", "placeholder", line))[1:]
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_bench_config_runs(tmp_path):
    (config,) = blocks("json")
    (tmp_path / "cfg.json").write_text(config)
    rc = cli.main(["bench", "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "run")])
    assert rc == 0
    assert (tmp_path / "run" / "report.json").exists()


def test_python_blocks_run(tmp_path, monkeypatch):
    world = make_synthetic_world(seed=0, n_places=2)
    write_scan(world.database[0].cloud, tmp_path / "000000.bin")
    monkeypatch.chdir(tmp_path)
    code = blocks("python")
    assert len(code) == 2
    for source in code:
        exec(compile(source, README, "exec"), {})
