"""Golden reports: the SHA-256 of every pinned ``--report`` document.

Each case runs one CLI command in process and hashes the bytes of the
report it writes.  Instance commands run on ``persposet random`` documents
at the acceptance tier S (``--t-max 5 --max-slice 6 --max-y-tracks 4``)
for six seeds and the fields 2 and 3; ``verify`` and ``fibers`` also run
at tier M (``--t-max 8 --max-slice 10 --max-y-tracks 6``, cases named
``<command>-M-s<seed>-p<field>``) for three seeds, where the order
complexes are large.  The two self-seeded suites run with ``--seed 0
--count 20``.  A changed digest means a changed certificate.
After an intended, documented schema change, print the new table with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from persposet.cli import main

TIERS = {
    "S": ("--t-max", "5", "--max-slice", "6", "--max-y-tracks", "4"),
    "M": ("--t-max", "8", "--max-slice", "10", "--max-y-tracks", "6"),
}
SEEDS = (0, 1, 2, 3, 4, 5)
TIER_M_SEEDS = (0, 1, 2)
TIER_M_COMMANDS = ("verify", "fibers")
FIELDS = (2, 3)
INSTANCE_COMMANDS = {
    "verify": ("verify",),
    "fibers": ("fibers",),
    "barcode": ("barcode",),
    "puncture": ("lemma", "puncture"),
    "cylinder": ("lemma", "cylinder"),
}
SUITE_COMMANDS = {
    "ses": ("lemma", "ses", "--seed", "0", "--count", "20"),
    "join": ("lemma", "join", "--seed", "0", "--count", "20"),
}

GOLDEN = {
    "verify-s0-p2": "f5aeaf7db5ef690897f12071a0c769cfd749833f1a455ec3cb60af091b31101c",
    "verify-s0-p3": "c241af4744397dcc656241fcb7f089be747fa7faae6fe25721a8083a93c7867d",
    "verify-s1-p2": "f5505741890affe739cae16e140d1d40748058e09cc282527c4694ebc9236374",
    "verify-s1-p3": "df18b66df43f6961bc8150c1f5b0b41d3be42c6ccbbb937d0c3fafe6e26cba5f",
    "verify-s2-p2": "628bf40d8e6fcb6eb3b769b63db83368d8484fa66fa68565f041afc46b9e7262",
    "verify-s2-p3": "f709c9b128aaf26867386866ea47d38e04fdc2d5162a4317075421f2269dc07f",
    "verify-s3-p2": "d2d064aac8e130bcafb3c6687752e4ff8b29fb06248d1c23e4b2dbc9aa27e9e8",
    "verify-s3-p3": "75f442ed472426d302b8e1b8028085b99d2b79f038322dbfefb9861819de670d",
    "verify-s4-p2": "8f1861bb8449dc36cedf178ef45192a4435ccef3722c8d148f51977b3ebc58df",
    "verify-s4-p3": "d9d2658498b787f3c3d426e09c85a4574303c339de20b556c83ff6efe23cdf11",
    "verify-s5-p2": "6c98cfdf32bac1102aa2136dafc1c18a5f9614d40c1183ed251afb445384372e",
    "verify-s5-p3": "b1c7cd1545f48ca8c6e69f34e5af59810d7f16ef40cbc68b8e657458a83ebec0",
    "fibers-s0-p2": "04ae6ab89c211fec70422cc3bca914dbdc5faa08a7f908c636bfc7d85351f98a",
    "fibers-s0-p3": "5324a4bdf522e5e8ec114ae95b94c92ae4fb35586947f24e20e28fe82d497358",
    "fibers-s1-p2": "edfc012514ebbf53002b6e3cd564aafbf8c6cf8cbaf639ac0b225f01784dd163",
    "fibers-s1-p3": "ca2cc7ad740f718a9b2470961c9a89dce2a7f917b3bbf9b8c6520d3803ef2328",
    "fibers-s2-p2": "2a6b1af05b9c2d01d3e0d0853bd60f9213f52b8afb0eb6927442397b8e160a36",
    "fibers-s2-p3": "80268f49b2662f2313db258b53ea4dd422a448cbbffa9c2023c54a2a8920371a",
    "fibers-s3-p2": "1968c92652b4c441ff70e03e70758b731cf221934ff07410f88d67406683f627",
    "fibers-s3-p3": "790b9fb07dfb2cc42c031e5e5e552bdac370feebec25971a90562e0874b8a4c7",
    "fibers-s4-p2": "854518d10b8fc1435dd7b4b9c3d0de3dc0ed1bf8edffa73db094447b49d6d84d",
    "fibers-s4-p3": "930664e26abd3eb6ed30743f4d5572eb37c7d15fb5e69d06676f31615cb13fe7",
    "fibers-s5-p2": "79fdcb4b6135e7d58069815c7cac1c3e0dea527ec273dfa07f7a51c9431de3e4",
    "fibers-s5-p3": "37e5b2d50c5e09dfc1145f48a95dda5f383e8837df790324ebeca6d5e749eb75",
    "barcode-s0-p2": "fa9554eed99f2deafcb7dbc35293ab00c46dee86d4f6c11a47fe23b2a734524a",
    "barcode-s0-p3": "c7284706224c39c108afd8e16aa58abc0e7924ccc9eec4afad498287009b30c9",
    "barcode-s1-p2": "971fa493568f6e067010aecc17edc676bcd466fb30c8d581fb05fd81cde75208",
    "barcode-s1-p3": "0f8090bd0581b988d6ec5255a05406c40f4b8dd2a28eaa4ded949c9bb2ccce0d",
    "barcode-s2-p2": "b89e62e864c9f378a6a87f38a6a5db3021c15238462e61d54fa8b8990b1efc21",
    "barcode-s2-p3": "7519bc9e5eee5a211269fd92f41c1eb8960151edf23a12ae94cc6239eaf54925",
    "barcode-s3-p2": "1a3cd662ecd2637f6419faf4cd64695ec1297c34f271cb71931103b047ac9665",
    "barcode-s3-p3": "90c67053e787123a89b5fa2918e9db4d8bb1e115b1cccae64d02a721dcb99084",
    "barcode-s4-p2": "d93bbf17eb3c29eafcd3b099843e451c51ac10cc23443add41ccfb6f36d42817",
    "barcode-s4-p3": "4ed5ffb208d30517105931af43ea33076743a89839faac1f52828d8ab093f48d",
    "barcode-s5-p2": "92a3a96550775677f4e5e393fe904cabf004474c0e875d8f32ed53b6db66dc49",
    "barcode-s5-p3": "ce0dd6bf6a6572146bb10041bedec1378b1977cfbf27c643d7a3bd3c525edfb3",
    "puncture-s0-p2": "060be49db4d1e7d59288420b3a38e3f344b278a218c8b7552780d63c8582201e",
    "puncture-s0-p3": "060be49db4d1e7d59288420b3a38e3f344b278a218c8b7552780d63c8582201e",
    "puncture-s1-p2": "fdf7ebb188107a533e40547469719250beda3bb5460025ee4a8b56b23bf5f36f",
    "puncture-s1-p3": "fdf7ebb188107a533e40547469719250beda3bb5460025ee4a8b56b23bf5f36f",
    "puncture-s2-p2": "3a7fb671993d2e859a7a6e1fd87a459556b03dc9d7530fa7ffb3e5f2da1003ce",
    "puncture-s2-p3": "3a7fb671993d2e859a7a6e1fd87a459556b03dc9d7530fa7ffb3e5f2da1003ce",
    "puncture-s3-p2": "4d77efe88620e4031a97076b31415efc1d3403f579752c38ef2fb70f1d7598f5",
    "puncture-s3-p3": "4d77efe88620e4031a97076b31415efc1d3403f579752c38ef2fb70f1d7598f5",
    "puncture-s4-p2": "f2d95ce848edd6839fc6f5c5fa1b56e9c6d4d9c80c85902a175b99cc2333f501",
    "puncture-s4-p3": "f2d95ce848edd6839fc6f5c5fa1b56e9c6d4d9c80c85902a175b99cc2333f501",
    "puncture-s5-p2": "ee59776c5bfe30aa0b3b98da58da0a2b6dc803de2856a2af9b94d7b9aa99a32f",
    "puncture-s5-p3": "ee59776c5bfe30aa0b3b98da58da0a2b6dc803de2856a2af9b94d7b9aa99a32f",
    "cylinder-s0-p2": "9f435a33ca36bd17aff6fee8c65056f16b6e356478b22a67bf7aac25d2179a32",
    "cylinder-s0-p3": "9f435a33ca36bd17aff6fee8c65056f16b6e356478b22a67bf7aac25d2179a32",
    "cylinder-s1-p2": "9f435a33ca36bd17aff6fee8c65056f16b6e356478b22a67bf7aac25d2179a32",
    "cylinder-s1-p3": "9f435a33ca36bd17aff6fee8c65056f16b6e356478b22a67bf7aac25d2179a32",
    "cylinder-s2-p2": "328f4bb3a9eee5aa9f904fa1e1540f225171e2518a84adbfa5f005faddaf65e5",
    "cylinder-s2-p3": "328f4bb3a9eee5aa9f904fa1e1540f225171e2518a84adbfa5f005faddaf65e5",
    "cylinder-s3-p2": "9ab66a42d2c440293316613bba812c5d6d5f7f8e23e9a859cbd0fb6bf5756a2c",
    "cylinder-s3-p3": "9ab66a42d2c440293316613bba812c5d6d5f7f8e23e9a859cbd0fb6bf5756a2c",
    "cylinder-s4-p2": "9f435a33ca36bd17aff6fee8c65056f16b6e356478b22a67bf7aac25d2179a32",
    "cylinder-s4-p3": "9f435a33ca36bd17aff6fee8c65056f16b6e356478b22a67bf7aac25d2179a32",
    "cylinder-s5-p2": "9ab66a42d2c440293316613bba812c5d6d5f7f8e23e9a859cbd0fb6bf5756a2c",
    "cylinder-s5-p3": "9ab66a42d2c440293316613bba812c5d6d5f7f8e23e9a859cbd0fb6bf5756a2c",
    "ses-p2": "a994f3d1131a84cbe5cbada44421aa208f0f95ec1cc91be0a4783665125b201b",
    "ses-p3": "a994f3d1131a84cbe5cbada44421aa208f0f95ec1cc91be0a4783665125b201b",
    "join-p2": "4dd3df861fe2e7baab782a8e677a178c8a68077a295148f777c07bd9ac9f3942",
    "join-p3": "4dd3df861fe2e7baab782a8e677a178c8a68077a295148f777c07bd9ac9f3942",
    "verify-M-s0-p2": "d7d57a058b031de1ad2c966f969820c1c53aab0a241c199f28159c2b528143dc",
    "verify-M-s0-p3": "c7c018dc99f5c9d0abc005d4b2c0963957dc8e9fda9381adf74aac66a8f64a5e",
    "verify-M-s1-p2": "0506c1d79db65e4174275013c87f4fc380641256049b0faf2c337db722087609",
    "verify-M-s1-p3": "cf42b81c55ee851b33e5c90dcb520ee03759b5eaa64cf13cf3b4610e28c76c47",
    "verify-M-s2-p2": "7ba59474109cb5740b33e8d0621ddf26d87f76979432422f92a5c372508d8939",
    "verify-M-s2-p3": "a0f9d5baeecd2dbd02a2d06fe083d78f7757f43d8e1d1b0b527d82fc9eee4788",
    "fibers-M-s0-p2": "5438cea310d0c5cf47a68a9d27d42ce65f702b474266b776244a35817888d8db",
    "fibers-M-s0-p3": "3ddd19fd04a194d5b3e6798ddc5b24b77b048937fdf36e548964ca23b747ae33",
    "fibers-M-s1-p2": "b0a85318e75a2acbf57aa97c2b8dd13479fa216e951d024b37c0b3576578d3be",
    "fibers-M-s1-p3": "f12d01d18cc50595cc5ad9573aa886499adeb01d4a65325681353cdc93513484",
    "fibers-M-s2-p2": "2a6b1af05b9c2d01d3e0d0853bd60f9213f52b8afb0eb6927442397b8e160a36",
    "fibers-M-s2-p3": "80268f49b2662f2313db258b53ea4dd422a448cbbffa9c2023c54a2a8920371a",
}


def _cases() -> list[str]:
    names = [f"{cmd}-s{seed}-p{p}" for cmd in INSTANCE_COMMANDS for seed in SEEDS for p in FIELDS]
    names += [f"{cmd}-p{p}" for cmd in SUITE_COMMANDS for p in FIELDS]
    return names + [
        f"{cmd}-M-s{seed}-p{p}" for cmd in TIER_M_COMMANDS for seed in TIER_M_SEEDS for p in FIELDS
    ]


def _run(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()):
        return main(argv)


def _report_digest(case: str, workdir: Path) -> str:
    parts = case.split("-")
    field = parts[-1][1:]
    if parts[0] in SUITE_COMMANDS:
        words = list(SUITE_COMMANDS[parts[0]])
    else:
        tier = parts[1] if len(parts) == 4 else "S"
        seed = parts[-2][1:]
        instance = workdir / f"instance-{tier}-{seed}.json"
        if not instance.exists():
            assert _run(["random", "--seed", seed, *TIERS[tier], "--report", str(instance)]) == 0
        words = [*INSTANCE_COMMANDS[parts[0]], str(instance)]
    report = workdir / f"{case}.json"
    assert _run([*words, "--field", field, "--report", str(report)]) in (0, 1)
    return hashlib.sha256(report.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("case", _cases())
def test_report_is_byte_identical(case, workdir):
    assert _report_digest(case, workdir) == GOLDEN[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in _cases():
            print(f'    "{case}": "{_report_digest(case, Path(tmp))}",', file=sys.stdout)
