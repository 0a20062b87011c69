"""Golden SHA-256 digests of every file `solve` and `sweep` write.

Emitted files are a byte-identical contract: a fixed config and seed must
reproduce every CSV and report byte for byte.  The digests below pin that
contract for all six shipped configs, with `solve` and with
`sweep --tau-min 0 --tau-max 1.1 --steps 500`, the sweep under both
residual conventions (`solve` has only the derived one).  A seventh input,
the log model of `log_1d_sub` with `measure_b = -0.5`, has no closed-form
critical points and pins the models whose piece ends come from the
critical-point scan.  `verify` writes no file; the digest of its stdout
pins every check line, value and verdict of the six shipped configs.
Regenerate them only for a deliberate change of output format.
"""
import hashlib
import re
from pathlib import Path

import pytest

from triality.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SWEEP_ARGS = ("--tau-min", "0", "--tau-max", "1.1", "--steps", "500")

GOLDEN = {
    ("doublewell_1d", "solve", "derived"): {
        "energy_report.csv": "d4328b3311c169f749523ea9d4d10b133189d51b983a08db9afb5428c1aa2741",
        "fields_u_1.csv": "c6a00c9451b789530ff67732c7ca7f983e82cb25a8464180417723082406f30e",
        "fields_u_2.csv": "86824d561a0d81558296ff767f6385ab5a49aed1a8b3d8d3d8bf698be5045df5",
        "report.txt": "67520e6312f1c6e884944738377908ca330990d8b5bcd9f90ebd2ae5aa196739",
        "roots.csv": "646f3bf95d7410b17ab29c7e2549302e0187c1bee0c4b08474a15b9b7c581a9b",
    },
    ("doublewell_1d", "sweep", "derived"): {
        "gcurve.csv": "d142a22d3b0c57ec8d0a4a970ce4b4fb1625f9f37c8e8de8a377ceec9dc66948",
        "gdcurve.csv": "96279af2b865ad961714fd9962d8a0314fc12fad84776d868e233e857a33943a",
        "hcurve.csv": "5aeac880eb87696603dc27518c3b3a63ddd70d352ad3a1a231a051c70b1c6948",
        "sweep.csv": "45ecc37a41b09414ebe3648cf5f150a506b53f1518f913e856d91ee23cf69627",
        "wcurve.csv": "303a4bc64765cc815df6c9072852472a2ee722918e10d5b319c74ac8f20a0746",
    },
    ("doublewell_1d", "sweep", "paper-eq45"): {
        "gcurve.csv": "d142a22d3b0c57ec8d0a4a970ce4b4fb1625f9f37c8e8de8a377ceec9dc66948",
        "gdcurve.csv": "96279af2b865ad961714fd9962d8a0314fc12fad84776d868e233e857a33943a",
        "hcurve.csv": "5aeac880eb87696603dc27518c3b3a63ddd70d352ad3a1a231a051c70b1c6948",
        "sweep.csv": "f49b27338373e114d33b9894f871dc4ea6521c59f6e8182b5f16db0a5dd9787e",
        "wcurve.csv": "303a4bc64765cc815df6c9072852472a2ee722918e10d5b319c74ac8f20a0746",
    },
    ("doublewell_1d_sub", "solve", "derived"): {
        "energy_report.csv": "f4716ef9a4a80ffcb0fc05b539e05f1bdc2247199d60d8845ca3862543ccb483",
        "fields_u_1.csv": "22ce9b299fd263c0f96b8e873474134299cce201a8dcd458d06433ba6b4ac21f",
        "fields_u_2.csv": "b4d0a4eb8775d0d8c0144ac0f43f50a4d03e05d242d2ff7b5587cd2bdd61c9f7",
        "fields_u_3.csv": "c48c968c012926d003ebd31412cb3c6ac4628056899d259abef871fba7a6c19b",
        "report.txt": "8491ab813d6d570944b3888199246e6ec21320858708b8fdd52fcec2941b82d5",
        "roots.csv": "cf850c86e6776096e34a39007eb61d70b377432707dc9176b122c981aa53458f",
    },
    ("doublewell_1d_sub", "sweep", "derived"): {
        "gcurve.csv": "d142a22d3b0c57ec8d0a4a970ce4b4fb1625f9f37c8e8de8a377ceec9dc66948",
        "gdcurve.csv": "96279af2b865ad961714fd9962d8a0314fc12fad84776d868e233e857a33943a",
        "hcurve.csv": "5aeac880eb87696603dc27518c3b3a63ddd70d352ad3a1a231a051c70b1c6948",
        "sweep.csv": "45ecc37a41b09414ebe3648cf5f150a506b53f1518f913e856d91ee23cf69627",
        "wcurve.csv": "303a4bc64765cc815df6c9072852472a2ee722918e10d5b319c74ac8f20a0746",
    },
    ("doublewell_1d_sub", "sweep", "paper-eq45"): {
        "gcurve.csv": "d142a22d3b0c57ec8d0a4a970ce4b4fb1625f9f37c8e8de8a377ceec9dc66948",
        "gdcurve.csv": "96279af2b865ad961714fd9962d8a0314fc12fad84776d868e233e857a33943a",
        "hcurve.csv": "5aeac880eb87696603dc27518c3b3a63ddd70d352ad3a1a231a051c70b1c6948",
        "sweep.csv": "f49b27338373e114d33b9894f871dc4ea6521c59f6e8182b5f16db0a5dd9787e",
        "wcurve.csv": "303a4bc64765cc815df6c9072852472a2ee722918e10d5b319c74ac8f20a0746",
    },
    ("doublewell_rect_stream", "solve", "derived"): {
        "energy_report.csv": "8bb4d2111aebef51a167d5293a4bbfbd453527da63d061a5382c88239f0b59e1",
        "report.txt": "67abf4378b6c2ed784dd997b8d0d8f76d8adae79bb43d27713297a895d80812d",
        "roots.csv": "d2a509a7fa851b63fc885fee5e608923ad4548f9a00c4a6a2d71b820f26f4e89",
    },
    ("doublewell_rect_stream", "sweep", "derived"): {
        "gcurve.csv": "d142a22d3b0c57ec8d0a4a970ce4b4fb1625f9f37c8e8de8a377ceec9dc66948",
        "gdcurve.csv": "96279af2b865ad961714fd9962d8a0314fc12fad84776d868e233e857a33943a",
        "hcurve.csv": "5aeac880eb87696603dc27518c3b3a63ddd70d352ad3a1a231a051c70b1c6948",
        "sweep.csv": "45ecc37a41b09414ebe3648cf5f150a506b53f1518f913e856d91ee23cf69627",
        "wcurve.csv": "303a4bc64765cc815df6c9072852472a2ee722918e10d5b319c74ac8f20a0746",
    },
    ("doublewell_rect_stream", "sweep", "paper-eq45"): {
        "gcurve.csv": "d142a22d3b0c57ec8d0a4a970ce4b4fb1625f9f37c8e8de8a377ceec9dc66948",
        "gdcurve.csv": "96279af2b865ad961714fd9962d8a0314fc12fad84776d868e233e857a33943a",
        "hcurve.csv": "5aeac880eb87696603dc27518c3b3a63ddd70d352ad3a1a231a051c70b1c6948",
        "sweep.csv": "f49b27338373e114d33b9894f871dc4ea6521c59f6e8182b5f16db0a5dd9787e",
        "wcurve.csv": "303a4bc64765cc815df6c9072852472a2ee722918e10d5b319c74ac8f20a0746",
    },
    ("log_1d_sub", "solve", "derived"): {
        "energy_report.csv": "d355af7974dc1eabf8bd211769f98f99ada31838855f729975989d2b68ee42b3",
        "fields_u_1.csv": "35b6826075d1d14f3aa8a902e5fbdad0c5d9c51471e8e1ab97b8f63937d6ad82",
        "fields_u_2.csv": "7f09f101aa94b9abcf6a8ba52ef1e47dc877eeea524481af8ceb05402461930a",
        "fields_u_3.csv": "ca67fb743642e19c99bc3931f68cf765d4ff282dfa865fc51c733b91ce3baa42",
        "report.txt": "284900fceabdb4f5219ad773c68e64e4e0630ba3b2e0de4a944df3155ab2db6b",
        "roots.csv": "db3eddabbc8684365f2c1f44dcfd2728f22b0fdb00210c73d0c210cb049e6d05",
    },
    ("log_1d_sub", "sweep", "derived"): {
        "gcurve.csv": "be6c5c5e2e8bd3ac63c7614050231ba780394d89c50f2ac32f4594544571cadb",
        "gdcurve.csv": "875e197a61d7e4244c4335290eb76cd18604ce40f898608658275d8451921ce4",
        "hcurve.csv": "0922d6d9b767ba18b2e43cb9580b7d1882fcf676061bcb21c20359d9ca3d6349",
        "sweep.csv": "ba896f07d59d1e7d52c6adf9e98b0d4eec1b00cd1f9edd3a48582f652b9a6f9b",
        "wcurve.csv": "2e2e85cb73e434718dfabe1fcc32bf162128bff8bb539eab1f5e55d92ee6c0a5",
    },
    ("log_1d_sub", "sweep", "paper-eq45"): {
        "gcurve.csv": "be6c5c5e2e8bd3ac63c7614050231ba780394d89c50f2ac32f4594544571cadb",
        "gdcurve.csv": "875e197a61d7e4244c4335290eb76cd18604ce40f898608658275d8451921ce4",
        "hcurve.csv": "11b68ac4e1fec717d5b2ae9ef4533beaa6f56aa0f7aba7efd5cd7e4ee46bedce",
        "sweep.csv": "84826f97229a3514eb68e5dc2290941299fda960715683aae51979aa3ca540c9",
        "wcurve.csv": "2e2e85cb73e434718dfabe1fcc32bf162128bff8bb539eab1f5e55d92ee6c0a5",
    },
    ("log_1d_super", "solve", "derived"): {
        "energy_report.csv": "9d0752f7eb4951fb762924df3fafd31916f48157d32efbbf37d534b2f25fb5bd",
        "fields_u_1.csv": "693a5d441e6b986a97c5cbcc9db68dd7b45c1e6db25c46ac09f67e03300629ff",
        "report.txt": "d4a314ba2eb8f3f0d4c93b3cf7aaa32f795ae7f896d884c11b2791ff10e7c7b9",
        "roots.csv": "3ae9347470b4360427f1bf8ebb2bb045cdf45eeac94138433cca22e1413248f1",
    },
    ("log_1d_super", "sweep", "derived"): {
        "gcurve.csv": "be6c5c5e2e8bd3ac63c7614050231ba780394d89c50f2ac32f4594544571cadb",
        "gdcurve.csv": "875e197a61d7e4244c4335290eb76cd18604ce40f898608658275d8451921ce4",
        "hcurve.csv": "0922d6d9b767ba18b2e43cb9580b7d1882fcf676061bcb21c20359d9ca3d6349",
        "sweep.csv": "ba896f07d59d1e7d52c6adf9e98b0d4eec1b00cd1f9edd3a48582f652b9a6f9b",
        "wcurve.csv": "2e2e85cb73e434718dfabe1fcc32bf162128bff8bb539eab1f5e55d92ee6c0a5",
    },
    ("log_1d_super", "sweep", "paper-eq45"): {
        "gcurve.csv": "be6c5c5e2e8bd3ac63c7614050231ba780394d89c50f2ac32f4594544571cadb",
        "gdcurve.csv": "875e197a61d7e4244c4335290eb76cd18604ce40f898608658275d8451921ce4",
        "hcurve.csv": "11b68ac4e1fec717d5b2ae9ef4533beaa6f56aa0f7aba7efd5cd7e4ee46bedce",
        "sweep.csv": "84826f97229a3514eb68e5dc2290941299fda960715683aae51979aa3ca540c9",
        "wcurve.csv": "2e2e85cb73e434718dfabe1fcc32bf162128bff8bb539eab1f5e55d92ee6c0a5",
    },
    ("log_rect_const", "solve", "derived"): {
        "energy_report.csv": "7633a5177acc9d2207f02570fb86563e1daf789d38e4ad3e03ce2380a9b2ec62",
        "fields_u_1.csv": "1e4410efacbad1ab187322190cbfde1e4a1fddc3e6220215814740cc300e39d7",
        "report.txt": "5f1a304d99a40e028c7f718a51a48f0add6fd50c313d7255ae3c84990658d23c",
        "roots.csv": "9cb2a7637e28a0022bfd511fd35934adc4a579918e6034b27b17a2d941390c43",
    },
    ("log_rect_const", "sweep", "derived"): {
        "gcurve.csv": "be6c5c5e2e8bd3ac63c7614050231ba780394d89c50f2ac32f4594544571cadb",
        "gdcurve.csv": "875e197a61d7e4244c4335290eb76cd18604ce40f898608658275d8451921ce4",
        "hcurve.csv": "0922d6d9b767ba18b2e43cb9580b7d1882fcf676061bcb21c20359d9ca3d6349",
        "sweep.csv": "ba896f07d59d1e7d52c6adf9e98b0d4eec1b00cd1f9edd3a48582f652b9a6f9b",
        "wcurve.csv": "2e2e85cb73e434718dfabe1fcc32bf162128bff8bb539eab1f5e55d92ee6c0a5",
    },
    ("log_rect_const", "sweep", "paper-eq45"): {
        "gcurve.csv": "be6c5c5e2e8bd3ac63c7614050231ba780394d89c50f2ac32f4594544571cadb",
        "gdcurve.csv": "875e197a61d7e4244c4335290eb76cd18604ce40f898608658275d8451921ce4",
        "hcurve.csv": "11b68ac4e1fec717d5b2ae9ef4533beaa6f56aa0f7aba7efd5cd7e4ee46bedce",
        "sweep.csv": "84826f97229a3514eb68e5dc2290941299fda960715683aae51979aa3ca540c9",
        "wcurve.csv": "2e2e85cb73e434718dfabe1fcc32bf162128bff8bb539eab1f5e55d92ee6c0a5",
    },
}

#: (command, convention) -> (exit code, digests) for log_1d_sub with measure_b = -0.5
GOLDEN_GENERIC = {
    ("solve", "derived"): (0, {
        "energy_report.csv": "f74add177123f518aae1f09621b90779916b7322bde94b725ada610a92bef603",
        "fields_u_1.csv": "eef845f097ee2adf285bfd97b69a44c8eb8a6ab724cb994495b21fd47bce5e41",
        "fields_u_2.csv": "03282a9f781b8fe96a310eb8df710517d52491961c93cc279456c9584a22f342",
        "report.txt": "00036880c02dca7e6ffafaad6bf16ce8719f7622fc7ff0cf61d875f0d214f15a",
        "roots.csv": "af3be47a7724f1051af82576e30b52fcb2db8132d1575d6393ff1f022ed92c71",
    }),
    ("sweep", "derived"): (0, {
        "gcurve.csv": "db18a70cdd7b058854005b7a89a45ef4cba4b33e72b38e020f6416e40cf6a1f4",
        "gdcurve.csv": "f94929a74ac47018d40b1b5e5f43982aa39a693d4d430263323683c02aa1039f",
        "hcurve.csv": "e26e34c1023a45d03602115b8c6124d90211ec90cb83237e2fbfe32debcd564a",
        "sweep.csv": "b014d75b80be663d2476894c328182e50f1ab24ee0d30ad3286ee3ce1fb9a8fd",
        "wcurve.csv": "8216c404712493ec1c6e71e89c5e52aad30a959fda826240c115fc94d98e1f1d",
    }),
    ("sweep", "paper-eq45"): (0, {
        "gcurve.csv": "db18a70cdd7b058854005b7a89a45ef4cba4b33e72b38e020f6416e40cf6a1f4",
        "gdcurve.csv": "f94929a74ac47018d40b1b5e5f43982aa39a693d4d430263323683c02aa1039f",
        "hcurve.csv": "8b98017c75346dd13fefe708d1795f8eed9374179b6eaf5f2a6d515c260dcf3e",
        "sweep.csv": "7f99a4829d411cab5c6a26e4a87b273eb24bc1b2f15219572bcc0297b2117c33",
        "wcurve.csv": "8216c404712493ec1c6e71e89c5e52aad30a959fda826240c115fc94d98e1f1d",
    }),
}

#: SHA-256 of the stdout of `verify` per shipped config (every one exits 0)
GOLDEN_VERIFY = {
    "doublewell_1d": "7df61d24e5ed991a26a60619a427b6eba87c0a4c13bde40963c2a3b88b2ce1db",
    "doublewell_1d_sub": "68b63b1b41098b192190de0ee1f599fdcfeeb0e255f2f438d425bb4491634940",
    "doublewell_rect_stream": "43260989cc2ec87e6222e22a7451667a251d7e6eea33f8a3cc5a432fea77b57a",
    "log_1d_sub": "5a25dd12b6693c405c7ad75828d893af0d272a86491fb488e31bfd6eedfd444a",
    "log_1d_super": "356472dc2bf69abb1e5e4842cd29398303c7fcb3bee57eadaf68ebdc07685dfb",
    "log_rect_const": "5e75d3c75da1e6980e60bf33a8db98e33579bb22c9436af45422dd95ed37c508",
}


def _run_digests(cfg, command, convention, out):
    args = [command, str(cfg), "--out", str(out)]
    if command == "sweep":
        args += ["--residual-convention", convention, *SWEEP_ARGS]
    code = main(args)
    return code, {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(c))
def test_output_digests(case, tmp_path, capsys):
    stem, command, convention = case
    code, digests = _run_digests(CONFIGS / f"{stem}.cfg", command, convention, tmp_path / "out")
    capsys.readouterr()
    assert code == 0
    assert digests == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_GENERIC), ids=lambda c: "-".join(c))
def test_generic_path_digests(case, tmp_path, capsys):
    cfg = tmp_path / "log_1d_sub_b_neg.cfg"
    cfg.write_text((CONFIGS / "log_1d_sub.cfg").read_text(encoding="utf-8")
                   + "measure_b = -0.5\n", encoding="utf-8")
    result = _run_digests(cfg, *case, tmp_path / "out")
    capsys.readouterr()
    assert result == GOLDEN_GENERIC[case]


@pytest.mark.parametrize("stem", sorted(GOLDEN_VERIFY))
def test_verify_stdout_digests(stem, capsys):
    assert main(["verify", str(CONFIGS / f"{stem}.cfg")]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_VERIFY[stem]


@pytest.mark.parametrize("tau_x", ["500", "2999", "1e4"])
def test_large_load_strain_on_the_floor(tau_x, tmp_path, capsys):
    # the negative branch's strain, recomputed from its root, lands within the
    # root's stop rule of the floor xi = 0 (at tau_x = 500, xi = -3.7e-13):
    # the closed domain takes V = 0 there instead of refusing the report
    text = (CONFIGS / "log_1d_sub.cfg").read_text(encoding="utf-8")
    cfg = tmp_path / "log_1d_sub_b_neg.cfg"
    cfg.write_text(re.sub(r"(?m)^tau_x = .*$", f"tau_x = {tau_x}", text)
                   + "measure_b = -0.5\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert "duality-gap check: OK" in (out / "report.txt").read_text(encoding="utf-8")


def test_golden_covers_every_shipped_config():
    assert {c[0] for c in GOLDEN} == set(GOLDEN_VERIFY) == {p.stem for p in CONFIGS.glob("*.cfg")}
