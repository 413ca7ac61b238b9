"""Golden digests of the CLI reports.

Each case runs ``regloss.cli.main`` in process and compares the sha256 of
every report file with the digest recorded when the case was added, so a
refactor that claims byte-identical reports is checked on every run.
Floating-point results depend on the numpy and scipy builds; the versions
the digests were recorded with are asserted first, so a different
environment fails as such instead of as a changed report.

A case whose arguments name a file in ``CONFIGS`` runs with that config
written into its directory; those cases hold the benchmark-sized reports.
"""

import hashlib
import json

import numpy
import pytest
import scipy

from regloss.cli import main

RECORDED_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}

CONFIGS = {
    "total-40x4.json": {
        "s_grid": [round(0.02 + 0.024 * k, 4) for k in range(40)],
        "t_grid": [0.005, 0.37, 1.2, 2.0],
    },
    "partial-800.json": {"threshold_samples": 800},
}

DIGESTS = {
    "mix --grid 32": {
        "certificates.json": "99ad6c0665a51db09bedd02a2e6a6962e222b5807d5796ce573f481296d346fb",
        "norms.csv": "bb7a8be07a99b5701f650a4ab8a6fc77d1cc9dd0e6eaa96efbcd5337aeb1dedf",
        "rates.csv": "fb7d4b819c909433c147f44f89702b7158e313a5e0bf2e8794b137a5907b61ac",
        "summary.txt": "f5e9d51bf06cd6f4253d41ff1c568f7f8556b147348c596a1a80a6d31d52ae4d",
    },
    "norms --grid 32": {
        "certificates.json": "cb5a448c7834570fd3abb21967914ad67dc5ed56624970f50eda909a57c712d8",
        "norm_table.csv": "53aa7f450c87e84334594cbb6d3cbd74c9cfddceb705739e6e80107e9e388bf1",
        "summary.txt": "d38774526cb5058bdda3e90f0f0bd194f4fc54d96cade62e9eb6f5341091c10f",
    },
    "certify --target total": {
        "blowup_sweep_d2.csv": "b57de4c39516c574c5f4e44704df7ab237cc5aa0791e615092035cc313376ed9",
        "blowup_sweep_d3.csv": "f578a7544325dbce6298994f938916d08b0ccf09d6398c620303e93ecc6ddaf1",
        "certificates.json": "06b01f3880e1f1573166c3245a1bf50dd6702431b86cb6d98545c1986bca8294",
        "summary.txt": "015aaff1f1421fead384c7d2cde1f5dab13861c9c5f168251cb8324c2c69039e",
    },
    "certify --target partial --rate-b 0.9 --rate-c 1.3": {
        "certificates.json": "e61c97945fbf45beb60b0790b34952d6b8464dad7726f7bf32fd80d94ddaa72a",
        "loss_threshold.csv": "30e3cea8bda5896132079cc506f07bdd3023b9a3435beb95ef1c3fdaceb25015",
        "summary.txt": "1023b6a6be6a57edbe16ca764e1c21c745d84cef37522a1a01dee39ee33ee71a",
    },
    "certify --target partial --grid 64": {
        "certificates.json": "98c8ecc3f1519b69dc316ced88d9cced70abd4aa466f0de853a6ecfe4822d189",
        "loss_threshold.csv": "f1ab44d88691dcc63eb00572fe27ab71981affb8cf5884048547789c4a2d064d",
        "summary.txt": "2c6c96fb37595ba86c5674c9383e8f1cda5241f07344c6949d371c3a8a658b6d",
    },
    "sweep --grid 64": {
        "certificates.json": "f87ac47b97059ad2e6d9a9d90e4ae4fed0eb951c5ac49195a34004bd24af75c3",
        "lower_bound.csv": "dbc5615bd2c3c01509822784ec6cb95dad1274c59b8c65932ccd4cc72234d6ef",
        "lower_bound_t0.csv": "414a23e7bdad77c05d89304935ade697f61dbcdc6692d3209173eeeb8d6a9b81",
        "summary.txt": "4a010dba20d601685c75b38e39cada199eee126088866bddcaf45df1c485faa4",
    },
    "solve --grid 64 --pieces 2": {
        "certificates.json": "9d737aac1d64ba47746fde1bd46a788a7f55d7a34b0f8592b3cd93355f421a59",
        "summary.txt": "46658aca844ddd566629904dec99e9e0ba98db8b0b18c0257beee84552730e9e",
        "truncated_solution.csv": "7b0d0781b2f893cb18a49c2fc6549626342c139a067c428fe3374498158844d5",
    },
    "solve --grid 256 --pieces 3": {
        "certificates.json": "36b1730a5c79677bafed927cecc14a1d3fd3690cf364de0ee339d0eb05f15f4d",
        "summary.txt": "b844a001d991e129a81df35c997effb3d8d1a0743445dcce8d83001d856a2236",
        "truncated_solution.csv": "addfc5cb2839d30ff05abd7af68eb908adaf52228b9666b742c98934d1717332",
    },
    "certify --target total --config total-40x4.json": {
        "blowup_sweep_d2.csv": "aab3b837441f0562cf51e46d83c401caaded1478314607c55ea730648200761d",
        "blowup_sweep_d3.csv": "b51cdb6f7ec08148384864dc01f5e4e61cdccec2e7c6061eab6cdadc5b23aa10",
        "certificates.json": "4897fab1b19553b49f5584bdc9ff3072d046e5fe425a056dce88754bce6ade78",
        "summary.txt": "e61ef0197ddcefc6ba11f4a5b74847d85277c3a6c5006f7651afffdd0d6dfe26",
    },
    "certify --target partial --rate-b 0.9 --rate-c 1.3 --config partial-800.json": {
        "certificates.json": "2744e0f0ab406d10d2abf8838be21c1e6a460b7364f4db037dfa73ad035381ab",
        "loss_threshold.csv": "98d49a5a0dd027e98691537f7609dca2b30f056dc5d159c6fd5a95b20b6f2f35",
        "summary.txt": "6cd4c3e2177e98b4344c9a58f6602962e87475bcbecd5c110563a6f83bbc32e6",
    },
}


@pytest.mark.parametrize("case", list(DIGESTS))
def test_report_digests(case, tmp_path):
    running = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    assert running == RECORDED_VERSIONS, "digests were recorded with other numpy/scipy builds"
    for name, config in CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(config))
    argv = [str(tmp_path / arg) if arg in CONFIGS else arg for arg in case.split()]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert digests == DIGESTS[case]
