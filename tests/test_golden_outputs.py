"""Golden SHA-256 digests of every file `solve` and `sweep` write.

Emitted files are a byte-identical contract: a fixed config and seed must
reproduce every CSV and report byte for byte.  The digests below pin that
contract for all six shipped configs, with `solve` and with
`sweep --tau-min 0 --tau-max 1.1 --steps 500`, under both residual
conventions.  A seventh input, the log model of `log_1d_sub` with
`measure_b = -0.5`, has no closed-form root geometry and pins the generic
sign-scan path; under paper-eq45 its `solve` writes `roots.csv` and then
exits 3, because the energy report takes V at a strain with xi < 0.
Regenerate them only for a deliberate change of output format.
"""
import hashlib
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
    ("doublewell_1d", "solve", "paper-eq45"): {
        "energy_report.csv": "e42917d77d43ae67590f1f58233901faebb9ada37b3be60513b13ccdc1d8ea0b",
        "fields_u_1.csv": "a842e48763d796e847f3b78db722804add59ec0986c4200551c9a202d033c6ce",
        "report.txt": "294c5594a9746fb6ca7e5f34ddfe5ebad8e08c6cf7211fc0dcce17182ed9bfc9",
        "roots.csv": "4ea280ba202e9e8f263d985b1e779de3799772a2a5f56bd3671dfccd0cbcb0eb",
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
    ("doublewell_1d_sub", "solve", "paper-eq45"): {
        "energy_report.csv": "4124c7b317aeb239b2e850506bb3bf2b0c4c54f7eb9d97369aa9170fd8f8db4f",
        "fields_u_1.csv": "417a5492ae1a1213bcee6a48a6d62e67793b786fbb6becd8d4f613c14985058c",
        "fields_u_2.csv": "df6b41eb2ed8d65b712371567ddb3a727b6a7dd2356e0efb7e47a8ce11ce73aa",
        "fields_u_3.csv": "ff9f99f079e05fe344b648afe46f57bbe26644c76b2b5f0a080519d51b24860a",
        "report.txt": "ccfce40acbe05f156374a798daa2dd0bebacb5a0e59635360cc65b98214afc1d",
        "roots.csv": "6f1afa0da10527d8a37a651b04804404b05236e8cd5112d748f8b5e186e9758a",
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
    ("doublewell_rect_stream", "solve", "paper-eq45"): {
        "energy_report.csv": "7b2ceb0f7dedd1c2cf9b833d4799311e95f130f239f73d0b358921df1c7d4265",
        "report.txt": "69c786b7e26aeb9decce6f7f995a56811bfbd4355eedc30fd30f9e9d044bdbca",
        "roots.csv": "2dfb53fad28ef58a0aed346b9655b4c0a89618d8f4e0fb9833fd974e16641539",
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
    ("log_1d_sub", "solve", "paper-eq45"): {
        "energy_report.csv": "b825fdc1b019e8b0df9432d99c076032e6996fcc738e7aaad9eea57a88e46d15",
        "fields_u_1.csv": "31bceb4263a9f7580d3d653f6ecaaf30e4c72c17243e751c3de78a6707f6704b",
        "report.txt": "d5e9a8b4a171902b8ecdf3c53a433210cf70dd7e158c5ea15eb53f38e2686791",
        "roots.csv": "167cfe11c110cc78582487cb390d14aa088461cfcaee3560609316944e793a07",
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
    ("log_1d_super", "solve", "paper-eq45"): {
        "energy_report.csv": "2f87236b66898cd553ad747d4448f938511f21ab6bae549d5ef0b60399967024",
        "fields_u_1.csv": "047b07d74f41c359db496ecf86c158c4520f134fb7de5c1c49d29efe91ff34b6",
        "report.txt": "647d328a27475ebcf750e270d1e5f985e43614b292b02e571409abd53999f38e",
        "roots.csv": "1fd84d75e3c5bc6d1d4d18e9ff840b9a5160de564721ab9dfb7ca952e685fc4a",
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
    ("log_rect_const", "solve", "paper-eq45"): {
        "energy_report.csv": "689f7250109b7a97f383016b152ef60a3e02e8aabac9d8ea424a0df9d3c7bf20",
        "fields_u_1.csv": "99f72fd77c9d630873a8ed9fe85cbd458c195eaa22bb1a5347150bc46043406b",
        "report.txt": "31207eae92c1da87eefef8fc1c384dfd402932f9be47de93fbbe8220ffda0887",
        "roots.csv": "a974bba111965125456e66f9389c4e202d0b7886af0ff2d523fae20095b88a93",
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
        "energy_report.csv": "287c995ee3f12bee3be0de106179d7ba0f88224829d6e2b0e7191743a45985b6",
        "fields_u_1.csv": "017448059ffe364ede85528bcc223341da1eb88add912946d2893b019f6ff990",
        "fields_u_2.csv": "5722d7d037439f6103cd740b06562e883c32e1f4de3c50be2c6669ecf86ca96a",
        "report.txt": "b72796d0d092f486292492a0c9b179050736b182c52c03357b5f2b54edf6a455",
        "roots.csv": "43045f2b677081a38ef325bb6d6bb6b27c5bac56fcfca1e2ba3bee190adc02a9",
    }),
    ("solve", "paper-eq45"): (3, {
        "roots.csv": "d10f154f02b546ae625f4b8373c707683d90cfbcbc39793307cceb7982cd4bbe",
    }),
    ("sweep", "derived"): (0, {
        "gcurve.csv": "db18a70cdd7b058854005b7a89a45ef4cba4b33e72b38e020f6416e40cf6a1f4",
        "gdcurve.csv": "f94929a74ac47018d40b1b5e5f43982aa39a693d4d430263323683c02aa1039f",
        "hcurve.csv": "e26e34c1023a45d03602115b8c6124d90211ec90cb83237e2fbfe32debcd564a",
        "sweep.csv": "2fc8e7158b8e37c86c36b0c32b1c8d19b0f953ee17b6e777b1a21357a5b0ecd0",
        "wcurve.csv": "8216c404712493ec1c6e71e89c5e52aad30a959fda826240c115fc94d98e1f1d",
    }),
    ("sweep", "paper-eq45"): (0, {
        "gcurve.csv": "db18a70cdd7b058854005b7a89a45ef4cba4b33e72b38e020f6416e40cf6a1f4",
        "gdcurve.csv": "f94929a74ac47018d40b1b5e5f43982aa39a693d4d430263323683c02aa1039f",
        "hcurve.csv": "b949346812fecd714fa554239c651a3dcb18490acf9c699925faa508167cdda0",
        "sweep.csv": "3a875b9a780c407cf1645805b55203674bd2f295ad0f31d7ed936e16703e7328",
        "wcurve.csv": "8216c404712493ec1c6e71e89c5e52aad30a959fda826240c115fc94d98e1f1d",
    }),
}


def _run_digests(cfg, command, convention, out):
    args = [command, str(cfg), "--out", str(out), "--residual-convention", convention]
    if command == "sweep":
        args += SWEEP_ARGS
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


def test_golden_covers_every_shipped_config():
    assert {c[0] for c in GOLDEN} == {p.stem for p in CONFIGS.glob("*.cfg")}
