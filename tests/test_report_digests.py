"""Golden digests of the CLI reports.

Each case runs ``regloss.cli.main`` in process and compares the sha256 of
every report file with the digest recorded when the case was added, so a
refactor that claims byte-identical reports is checked on every run.
Floating-point results depend on the numpy and scipy builds; the versions
the digests were recorded with are asserted first, so a different
environment fails as such instead of as a changed report.
"""

import hashlib

import numpy
import pytest
import scipy

from regloss.cli import main

RECORDED_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}

DIGESTS = {
    "mix --grid 32": {
        "certificates.json": "a78f10a40deeb507f1845138856cc2cceae96ac0f65e649e5f8a0f4da8508840",
        "norms.csv": "bb7a8be07a99b5701f650a4ab8a6fc77d1cc9dd0e6eaa96efbcd5337aeb1dedf",
        "rates.csv": "fb7d4b819c909433c147f44f89702b7158e313a5e0bf2e8794b137a5907b61ac",
        "summary.txt": "efc2966917682f3f9c8ea7cd20b49c77ae849df5e0af05ad19ab6a9796ebec33",
    },
    "norms --grid 32": {
        "certificates.json": "3a0e093d52d328e4174015cd16d7e529c51a573135defd987526269b35c15eed",
        "norm_table.csv": "53aa7f450c87e84334594cbb6d3cbd74c9cfddceb705739e6e80107e9e388bf1",
        "summary.txt": "d38774526cb5058bdda3e90f0f0bd194f4fc54d96cade62e9eb6f5341091c10f",
    },
    "certify --target total": {
        "blowup_sweep_d2.csv": "b57de4c39516c574c5f4e44704df7ab237cc5aa0791e615092035cc313376ed9",
        "blowup_sweep_d3.csv": "f578a7544325dbce6298994f938916d08b0ccf09d6398c620303e93ecc6ddaf1",
        "certificates.json": "8b79b6eec37f2ea481a64b0b7c2cf27a7945792d7f13b14383c0b926858f79b3",
        "summary.txt": "015aaff1f1421fead384c7d2cde1f5dab13861c9c5f168251cb8324c2c69039e",
    },
    "certify --target partial --rate-b 0.9 --rate-c 1.3": {
        "certificates.json": "99a7b3515a3c8e0c9ffa4a08720579ede9ee6efe196e361611e831be8fbac0d5",
        "loss_threshold.csv": "30e3cea8bda5896132079cc506f07bdd3023b9a3435beb95ef1c3fdaceb25015",
        "summary.txt": "1023b6a6be6a57edbe16ca764e1c21c745d84cef37522a1a01dee39ee33ee71a",
    },
    "certify --target partial --grid 64": {
        "certificates.json": "e6067d4baadbf21f365dedd716a98b9591a27441a1026207dcd83a47bf1f4db9",
        "loss_threshold.csv": "f1ab44d88691dcc63eb00572fe27ab71981affb8cf5884048547789c4a2d064d",
        "summary.txt": "ed2a045f983445531002e43f4ff1c33da1c71439b914e68bb6d4bcbb23334cc8",
    },
    "sweep --grid 64": {
        "certificates.json": "18a5ea0ac04218980242a8fb8f8af5a941ecf2e1fefdfe2194e914b689f5c328",
        "lower_bound.csv": "dbc5615bd2c3c01509822784ec6cb95dad1274c59b8c65932ccd4cc72234d6ef",
        "lower_bound_t0.csv": "414a23e7bdad77c05d89304935ade697f61dbcdc6692d3209173eeeb8d6a9b81",
        "summary.txt": "4a010dba20d601685c75b38e39cada199eee126088866bddcaf45df1c485faa4",
    },
    "solve --grid 64 --pieces 2": {
        "certificates.json": "afc4bd0af696367bb4f84af6f6d47a3bc24dfeaf5a4ddde4ee910b7a04f90da4",
        "summary.txt": "46658aca844ddd566629904dec99e9e0ba98db8b0b18c0257beee84552730e9e",
        "truncated_solution.csv": "7b0d0781b2f893cb18a49c2fc6549626342c139a067c428fe3374498158844d5",
    },
}


@pytest.mark.parametrize("case", list(DIGESTS))
def test_report_digests(case, tmp_path):
    running = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    assert running == RECORDED_VERSIONS, "digests were recorded with other numpy/scipy builds"
    out = tmp_path / "out"
    assert main([*case.split(), "--out", str(out)]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert digests == DIGESTS[case]
