"""Pinned output bytes for the demo corpus.

``synth --preset demo`` is analyzed twice through ``cli.main``: once with
hourly windows, actor-mode leadership, window CSVs and both graph exports,
once with centralization counted negatively.  Every file written is pinned
by sha256; ``report.json`` is pinned without its ``config`` block, which
holds the run's own paths.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from valuescope.cli import main
from valuescope.pipeline import dump_report

RUNS = {
    "actor": ["--window-hours", "1", "--gbco-mode", "actor", "--window-csv",
              "--export-graphml", "--export-dot"],
    "flipped": ["--flip-centralization"],
}

DIGESTS: dict[str, dict[str, str]] = {
    "actor": {
        "graphs/Citizenship.dot":
            "8471b366347cea4b5147b8ef68fb6991ccde58f29996289b3ce8642d29870966",
        "graphs/Citizenship.graphml":
            "2b3cb720156f9cb2bc320cd6102b4c57c62d7183af71ed9f5130c3673ebc055e",
        "graphs/Customers.dot":
            "31b821ee2e9959491689f5cbbad1051199ffbd80cc38f31d64dac6742d99c07c",
        "graphs/Customers.graphml":
            "4c7d3ca88ad120a3c1d3366ca2fd3603a1d4d7e19f21e26f31a839affa3d1752",
        "graphs/EconomicFinancialGrowth.dot":
            "85fc5b2d4e3162587702c2e93c2195987da8c6f009ea6bfe3ea45977e3034b4c",
        "graphs/EconomicFinancialGrowth.graphml":
            "0018676dcf205cf192c3b21de536cddc2b21c02dbb780866d970214b6c1496af",
        "graphs/Employees.dot":
            "0cc64d489ee1a3bffbb2805477b5d9d2f1d94d5b3cbff98124433a13cb2483f1",
        "graphs/Employees.graphml":
            "786af5f2a5af9dff954ff571deb4e8dca6d7cc52b81123fe0c8b4e75d83f9dd5",
        "graphs/Excellence.dot":
            "6d7142c75fb0e068b475ad7c9766a8380393953fbc1668366d51ec6dc781ce96",
        "graphs/Excellence.graphml":
            "2e1092cb82ea12ddc19bbf1628498186ec87c9091189947efe39c373d31118e9",
        "graphs/SocialResponsibility.dot":
            "5070e7d06ad5729111057aa5295259d711c70130ab3f93ce08b55cf3033b9acb",
        "graphs/SocialResponsibility.graphml":
            "f9614c944425d3b7ea763681a9b8e92dea97a9b41c4174ce8405817a4c32e680",
        "metrics.csv":
            "f95ad1e64122779b6caad139c5cff1203a5cec99197be10a39ec44a1f56430fb",
        "report.json":
            "eb09d92c67a447a4aef8a270ebe55ad14e3c732ec81ae8fba0885d591838bf50",
        "windows_Citizenship.csv":
            "02e0bae57201040692c64fe07087802891cf6eff6505cf3f541e1bed10f6d904",
        "windows_Customers.csv":
            "ba2e3d196ea6e4f357d822076e27079c7576ca6f7ca9fb8611952fa58bc34ff6",
        "windows_EconomicFinancialGrowth.csv":
            "1721bae77aef3cc25f1f010178b447659af477b822a20f33c08958ffea8ced5f",
        "windows_Employees.csv":
            "a2ec8597155bafdb4d066fc7054f78643b5fa6c0dc45dcac2a328e7d1f418a63",
        "windows_Excellence.csv":
            "9b5c32a5de8abbaa853cf051e04b1af9a4c390d42444e2633fd8655c27a331d5",
        "windows_SocialResponsibility.csv":
            "e84e17d073c92f66d2280a8b15fbcc39ad01f605ff4296b786239056930512ee",
    },
    "flipped": {
        "metrics.csv":
            "39bbd69f7e761d38788e3617f6aece34be2bdea123511e7801a811de78825076",
        "report.json":
            "22c8cb5d29cb02cfe591eedcf64c15262ff3d77d7c5058d73f60e5efb09c53f8",
    },
}


def _digests(out) -> dict[str, str]:
    found = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            del report["config"]
            data = dump_report(report).encode()
        found[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return found


@pytest.fixture(scope="module")
def demo_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("demo") / "demo.ndjson"
    assert main(["synth", "--preset", "demo", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("run", sorted(RUNS))
def test_demo_outputs_are_pinned(demo_corpus, tmp_path, capsys, run):
    out = tmp_path / "out"
    assert main(["run", "--corpus", str(demo_corpus), "--out", str(out), *RUNS[run]]) == 0
    capsys.readouterr()
    assert _digests(out) == DIGESTS[run]
