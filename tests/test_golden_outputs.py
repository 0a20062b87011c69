"""Golden SHA-256 digests of every file `solve` and `sweep` write.

Emitted files are a byte-identical contract: a fixed config and seed must
reproduce every CSV and report byte for byte.  The digests below pin that
contract for all six shipped configs, with `solve` and with
`sweep --tau-min 0 --tau-max 1.1 --steps 500`.  Two more inputs shift the
measure of `log_1d_sub`: with `measure_b = -0.5` the log model's curve has
no critical point (GOLDEN_GENERIC), with `measure_b = 0.01` its fold
zeta_c = -1.40045 comes from Lambert W (GOLDEN_FOLD).  The paper's eq. (45)
sweep is the sweep of each of these configs with `measure_a = 0.25`:
GOLDEN_EQ45 pins its root columns and its h_paper45 curve.  `verify` writes
no file; the digest of its stdout pins every check line, value and verdict
of the six shipped configs.
Regenerate them only for a deliberate change of output format.
"""
import hashlib
import re
from pathlib import Path

import pytest

from triality.cli import main

from conftest import shipped_verify

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SWEEP_ARGS = ("--tau-min", "0", "--tau-max", "1.1", "--steps", "500")

GOLDEN = {
    ("doublewell_1d", "solve"): {
        "energy_report.csv": "d4328b3311c169f749523ea9d4d10b133189d51b983a08db9afb5428c1aa2741",
        "fields_u_1.csv": "c6a00c9451b789530ff67732c7ca7f983e82cb25a8464180417723082406f30e",
        "fields_u_2.csv": "86824d561a0d81558296ff767f6385ab5a49aed1a8b3d8d3d8bf698be5045df5",
        "report.txt": "7c9dc73ce4f67a5226c4a201633ca744aca3eae6c7cfc7f60bb73067a8a15da7",
        "roots.csv": "646f3bf95d7410b17ab29c7e2549302e0187c1bee0c4b08474a15b9b7c581a9b",
    },
    ("doublewell_1d", "sweep"): {
        "gcurve.csv": "d142a22d3b0c57ec8d0a4a970ce4b4fb1625f9f37c8e8de8a377ceec9dc66948",
        "gdcurve.csv": "96279af2b865ad961714fd9962d8a0314fc12fad84776d868e233e857a33943a",
        "hcurve.csv": "5aeac880eb87696603dc27518c3b3a63ddd70d352ad3a1a231a051c70b1c6948",
        "sweep.csv": "45ecc37a41b09414ebe3648cf5f150a506b53f1518f913e856d91ee23cf69627",
        "wcurve.csv": "303a4bc64765cc815df6c9072852472a2ee722918e10d5b319c74ac8f20a0746",
    },
    ("doublewell_1d_sub", "solve"): {
        "energy_report.csv": "f4716ef9a4a80ffcb0fc05b539e05f1bdc2247199d60d8845ca3862543ccb483",
        "fields_u_1.csv": "22ce9b299fd263c0f96b8e873474134299cce201a8dcd458d06433ba6b4ac21f",
        "fields_u_2.csv": "b4d0a4eb8775d0d8c0144ac0f43f50a4d03e05d242d2ff7b5587cd2bdd61c9f7",
        "fields_u_3.csv": "c48c968c012926d003ebd31412cb3c6ac4628056899d259abef871fba7a6c19b",
        "report.txt": "2177b3f53abbef89842864abf002768e37c699808b2583f56244226cea936f99",
        "roots.csv": "cf850c86e6776096e34a39007eb61d70b377432707dc9176b122c981aa53458f",
    },
    ("doublewell_1d_sub", "sweep"): {
        "gcurve.csv": "d142a22d3b0c57ec8d0a4a970ce4b4fb1625f9f37c8e8de8a377ceec9dc66948",
        "gdcurve.csv": "96279af2b865ad961714fd9962d8a0314fc12fad84776d868e233e857a33943a",
        "hcurve.csv": "5aeac880eb87696603dc27518c3b3a63ddd70d352ad3a1a231a051c70b1c6948",
        "sweep.csv": "45ecc37a41b09414ebe3648cf5f150a506b53f1518f913e856d91ee23cf69627",
        "wcurve.csv": "303a4bc64765cc815df6c9072852472a2ee722918e10d5b319c74ac8f20a0746",
    },
    ("doublewell_rect_stream", "solve"): {
        "energy_report.csv": "8bb4d2111aebef51a167d5293a4bbfbd453527da63d061a5382c88239f0b59e1",
        "report.txt": "fc00622602ea9baf932ea3cc9e452897e8ea4caf56ec0da9f248e6f3f908978c",
        "roots.csv": "d2a509a7fa851b63fc885fee5e608923ad4548f9a00c4a6a2d71b820f26f4e89",
    },
    ("doublewell_rect_stream", "sweep"): {
        "gcurve.csv": "d142a22d3b0c57ec8d0a4a970ce4b4fb1625f9f37c8e8de8a377ceec9dc66948",
        "gdcurve.csv": "96279af2b865ad961714fd9962d8a0314fc12fad84776d868e233e857a33943a",
        "hcurve.csv": "5aeac880eb87696603dc27518c3b3a63ddd70d352ad3a1a231a051c70b1c6948",
        "sweep.csv": "45ecc37a41b09414ebe3648cf5f150a506b53f1518f913e856d91ee23cf69627",
        "wcurve.csv": "303a4bc64765cc815df6c9072852472a2ee722918e10d5b319c74ac8f20a0746",
    },
    ("log_1d_sub", "solve"): {
        "energy_report.csv": "d355af7974dc1eabf8bd211769f98f99ada31838855f729975989d2b68ee42b3",
        "fields_u_1.csv": "35b6826075d1d14f3aa8a902e5fbdad0c5d9c51471e8e1ab97b8f63937d6ad82",
        "fields_u_2.csv": "7f09f101aa94b9abcf6a8ba52ef1e47dc877eeea524481af8ceb05402461930a",
        "fields_u_3.csv": "ca67fb743642e19c99bc3931f68cf765d4ff282dfa865fc51c733b91ce3baa42",
        "report.txt": "367f4dc950f6fbcfb62e39fb2368cd8a18ee32b19bfc719771de0328c363058e",
        "roots.csv": "db3eddabbc8684365f2c1f44dcfd2728f22b0fdb00210c73d0c210cb049e6d05",
    },
    ("log_1d_sub", "sweep"): {
        "gcurve.csv": "be6c5c5e2e8bd3ac63c7614050231ba780394d89c50f2ac32f4594544571cadb",
        "gdcurve.csv": "875e197a61d7e4244c4335290eb76cd18604ce40f898608658275d8451921ce4",
        "hcurve.csv": "0922d6d9b767ba18b2e43cb9580b7d1882fcf676061bcb21c20359d9ca3d6349",
        "sweep.csv": "ba896f07d59d1e7d52c6adf9e98b0d4eec1b00cd1f9edd3a48582f652b9a6f9b",
        "wcurve.csv": "2e2e85cb73e434718dfabe1fcc32bf162128bff8bb539eab1f5e55d92ee6c0a5",
    },
    ("log_1d_super", "solve"): {
        "energy_report.csv": "9d0752f7eb4951fb762924df3fafd31916f48157d32efbbf37d534b2f25fb5bd",
        "fields_u_1.csv": "693a5d441e6b986a97c5cbcc9db68dd7b45c1e6db25c46ac09f67e03300629ff",
        "report.txt": "97c26aafb0903d79c6e4853c19150e457808980c9f0af307a1fa83b1d6bd326a",
        "roots.csv": "3ae9347470b4360427f1bf8ebb2bb045cdf45eeac94138433cca22e1413248f1",
    },
    ("log_1d_super", "sweep"): {
        "gcurve.csv": "be6c5c5e2e8bd3ac63c7614050231ba780394d89c50f2ac32f4594544571cadb",
        "gdcurve.csv": "875e197a61d7e4244c4335290eb76cd18604ce40f898608658275d8451921ce4",
        "hcurve.csv": "0922d6d9b767ba18b2e43cb9580b7d1882fcf676061bcb21c20359d9ca3d6349",
        "sweep.csv": "ba896f07d59d1e7d52c6adf9e98b0d4eec1b00cd1f9edd3a48582f652b9a6f9b",
        "wcurve.csv": "2e2e85cb73e434718dfabe1fcc32bf162128bff8bb539eab1f5e55d92ee6c0a5",
    },
    ("log_rect_const", "solve"): {
        "energy_report.csv": "7633a5177acc9d2207f02570fb86563e1daf789d38e4ad3e03ce2380a9b2ec62",
        "fields_u_1.csv": "1e4410efacbad1ab187322190cbfde1e4a1fddc3e6220215814740cc300e39d7",
        "report.txt": "68bd4295f4559a7c8fd153d2e6205667cae0fd1f77f72d39fffc0db2abaf4757",
        "roots.csv": "9cb2a7637e28a0022bfd511fd35934adc4a579918e6034b27b17a2d941390c43",
    },
    ("log_rect_const", "sweep"): {
        "gcurve.csv": "be6c5c5e2e8bd3ac63c7614050231ba780394d89c50f2ac32f4594544571cadb",
        "gdcurve.csv": "875e197a61d7e4244c4335290eb76cd18604ce40f898608658275d8451921ce4",
        "hcurve.csv": "0922d6d9b767ba18b2e43cb9580b7d1882fcf676061bcb21c20359d9ca3d6349",
        "sweep.csv": "ba896f07d59d1e7d52c6adf9e98b0d4eec1b00cd1f9edd3a48582f652b9a6f9b",
        "wcurve.csv": "2e2e85cb73e434718dfabe1fcc32bf162128bff8bb539eab1f5e55d92ee6c0a5",
    },
}

#: command -> (exit code, digests) for log_1d_sub with measure_b = -0.5
GOLDEN_GENERIC = {
    "solve": (0, {
        "energy_report.csv": "f74add177123f518aae1f09621b90779916b7322bde94b725ada610a92bef603",
        "fields_u_1.csv": "eef845f097ee2adf285bfd97b69a44c8eb8a6ab724cb994495b21fd47bce5e41",
        "fields_u_2.csv": "03282a9f781b8fe96a310eb8df710517d52491961c93cc279456c9584a22f342",
        "report.txt": "58332960695818ae907f3709980f5254ffe309c52fd4a42e81f3b5bb41b5e4c7",
        "roots.csv": "af3be47a7724f1051af82576e30b52fcb2db8132d1575d6393ff1f022ed92c71",
    }),
    "sweep": (0, {
        "gcurve.csv": "db18a70cdd7b058854005b7a89a45ef4cba4b33e72b38e020f6416e40cf6a1f4",
        "gdcurve.csv": "f94929a74ac47018d40b1b5e5f43982aa39a693d4d430263323683c02aa1039f",
        "hcurve.csv": "e26e34c1023a45d03602115b8c6124d90211ec90cb83237e2fbfe32debcd564a",
        "sweep.csv": "b014d75b80be663d2476894c328182e50f1ab24ee0d30ad3286ee3ce1fb9a8fd",
        "wcurve.csv": "8216c404712493ec1c6e71e89c5e52aad30a959fda826240c115fc94d98e1f1d",
    }),
}

#: command -> (exit code, digests) for log_1d_sub with measure_b = 0.01
GOLDEN_FOLD = {
    "solve": (0, {
        "energy_report.csv": "e750b4c212e22534ff1f838f83e58504d42b32d6586baf7db2125cced49a9f1e",
        "fields_u_1.csv": "c56672a9fe9d5618345da89b93e397edbeaf9c6f001d05c7599b2e6c1d21e44f",
        "report.txt": "b6965269ebece23f9395c764a864ebd1803189a1c9a05b10d74331077d52dfa6",
        "roots.csv": "f6921c8c5dddef097e99bb90982bdda92158248691de349bc7a832b1cfc5ad0c",
    }),
    "sweep": (0, {
        "gcurve.csv": "33189556cee9acfa032c0fec94588c54e0cc90c75ef4fcb3883a10ace0ac7f20",
        "gdcurve.csv": "5cf6acb31d9b32b38c0079cf22aac0b9bc237ae24fc76bc672480f107fb6e1d5",
        "hcurve.csv": "bf7550a8af5fb9e1862329a28793b519f8adda4b7b265603ada50b1acf7b0eca",
        "sweep.csv": "fff98c0bfaa8e876d7a73d29da5354f6777626b156dfcee13268807658e5c17f",
        "wcurve.csv": "5084f497e68d7f2a44bbf87a9f9482722528387e72f27c47d91939fc601256c6",
    }),
}

#: SHA-256 of the stdout of `verify` per shipped config (every one exits 0)
GOLDEN_VERIFY = {
    "doublewell_1d": "a83d7d005749e282aa3caa4fedf5be73370ce0fb7bc5f6fc42450a20dcbfde7a",
    "doublewell_1d_sub": "300def5ed0cd0d99634b3e97a89f626c27cb4a54557e65ba019ef9ad8312e0b5",
    "doublewell_rect_stream": "a715c37361528d625220b63272e153ed1d9898be4c6e029466cc03708cff727b",
    "log_1d_sub": "a5a92ac7a5e188c7766a3a822a62ad75485da29ad43eb34941a94942b741b35b",
    "log_1d_super": "88e54df747c6b484c0710f3d65d14fc8f8666beb21bfd3b967469026c695b34d",
    "log_rect_const": "a56bd942ba9c2ab77b7b049d6a53ae97a53b46d4633678cf2e79ece48d71b8e5",
}


#: (stem, measure_b added to the config or None) -> SHA-256 of the sweep.csv
#: columns tau,root_count,zeta1,zeta2,zeta3 and of the hcurve.csv columns
#: zeta,h_paper45 of the paper's eq. (45) sweep: the config with
#: measure_a = 0.25, whose curve h_paper45 draws for every measure
GOLDEN_EQ45 = {
    ("doublewell_1d", None): (
        "4a24a33c1d7e69c5a777e23e3c3c230ac2e00f8bb52727ab1eacc2d5526f467b",
        "c7f292647aafac25944fe8c17035d90635403cdce73837f8ce96cf29fba4915d"),
    ("doublewell_1d_sub", None): (
        "4a24a33c1d7e69c5a777e23e3c3c230ac2e00f8bb52727ab1eacc2d5526f467b",
        "c7f292647aafac25944fe8c17035d90635403cdce73837f8ce96cf29fba4915d"),
    ("doublewell_rect_stream", None): (
        "4a24a33c1d7e69c5a777e23e3c3c230ac2e00f8bb52727ab1eacc2d5526f467b",
        "c7f292647aafac25944fe8c17035d90635403cdce73837f8ce96cf29fba4915d"),
    ("log_1d_sub", None): (
        "132d5d4138e8bb74d8446b838de539d0bbc48d36d3dda6bdea4ec98f29603c10",
        "6ac69b9158d8db385d3ea93b84d5467a660d7a926eaac8d85ceb72d5c2fbcfea"),
    ("log_1d_super", None): (
        "132d5d4138e8bb74d8446b838de539d0bbc48d36d3dda6bdea4ec98f29603c10",
        "6ac69b9158d8db385d3ea93b84d5467a660d7a926eaac8d85ceb72d5c2fbcfea"),
    ("log_rect_const", None): (
        "132d5d4138e8bb74d8446b838de539d0bbc48d36d3dda6bdea4ec98f29603c10",
        "6ac69b9158d8db385d3ea93b84d5467a660d7a926eaac8d85ceb72d5c2fbcfea"),
    ("log_1d_sub", "-0.5"): (
        "be4e756812e58786bcf3e9629bd4a26cde06880e8ecfc32622dac5f7e4f34546",
        "9bdda11e017af1f555f907cca4def732ea56a825f522cf19388bb496a3f76af0"),
    ("log_1d_sub", "0.01"): (
        "29bb125071cd0e04af79e64a05c5f416f7b1e57b2481b8ab99378101791c1e1d",
        "cafe1c8226aeef5d6cd9062df8829dc88f702a82199e98644dbcd74dc2c804a0"),
}


def _run_digests(cfg, command, out):
    args = [command, str(cfg), "--out", str(out)]
    if command == "sweep":
        args += SWEEP_ARGS
    code = main(args)
    return code, {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _with_lines(stem, lines, tmp_path):
    """A copy of a shipped config with lines appended (keys it does not set)."""
    cfg = tmp_path / f"{stem}_shifted.cfg"
    cfg.write_text((CONFIGS / f"{stem}.cfg").read_text(encoding="utf-8")
                   + "".join(f"{line}\n" for line in lines), encoding="utf-8")
    return cfg


# the ids name the derived dual equation, which every output solves for the
# configured measure
@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(c) + "-derived")
def test_output_digests(case, tmp_path, capsys):
    stem, command = case
    code, digests = _run_digests(CONFIGS / f"{stem}.cfg", command, tmp_path / "out")
    capsys.readouterr()
    assert code == 0
    assert digests == GOLDEN[case]


def _shifted_digests(b, command, tmp_path):
    return _run_digests(_with_lines("log_1d_sub", [f"measure_b = {b}"], tmp_path),
                        command, tmp_path / "out")


@pytest.mark.parametrize("command", sorted(GOLDEN_GENERIC), ids=lambda c: c + "-derived")
def test_generic_path_digests(command, tmp_path, capsys):
    result = _shifted_digests("-0.5", command, tmp_path)
    capsys.readouterr()
    assert result == GOLDEN_GENERIC[command]


@pytest.mark.parametrize("command", sorted(GOLDEN_FOLD), ids=lambda c: c + "-derived")
def test_lambert_fold_digests(command, tmp_path, capsys):
    result = _shifted_digests("0.01", command, tmp_path)
    capsys.readouterr()
    assert result == GOLDEN_FOLD[command]


def _columns_digest(path, names):
    """SHA-256 of the named columns of a CSV file, header included."""
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    at = [rows[0].index(name) for name in names]
    return hashlib.sha256("".join(",".join(row[i] for i in at) + "\n"
                                  for row in rows).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN_EQ45, key=str),
                         ids=lambda c: c[0] if c[1] is None else f"{c[0]}-b={c[1]}")
def test_eq45_sweep_is_the_quarter_measure(case, tmp_path, capsys):
    # eq. (45) is the dual equation of the measure (1/4, b): its sweep is the
    # sweep of the config with measure_a = 0.25, and its roots and its
    # h_paper45 curve are the bytes the same figure data has always had
    stem, b = case
    lines = ["measure_a = 0.25"] + ([] if b is None else [f"measure_b = {b}"])
    out = tmp_path / "out"
    assert main(["sweep", str(_with_lines(stem, lines, tmp_path)), "--out", str(out),
                 *SWEEP_ARGS]) == 0
    capsys.readouterr()
    assert (_columns_digest(out / "sweep.csv", ["tau", "root_count", "zeta1", "zeta2", "zeta3"]),
            _columns_digest(out / "hcurve.csv", ["zeta", "h_paper45"])) == GOLDEN_EQ45[case]


@pytest.mark.parametrize("stem", sorted(GOLDEN_VERIFY))
def test_verify_stdout_digests(stem):
    code, out = shipped_verify(f"{stem}.cfg")
    assert code == 0
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
