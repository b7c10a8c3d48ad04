"""Byte identity of the output of every command on the sample configs: the
sha256 of stdout.  The --format json digests were recorded before the
sign-generic rewrite of the Hall Hopf operations, those of tube2 (the rank-2
tube C2) before Hall numbers were computed by one change of basis per
subspace, those of x2 (the Euclidean quiver A~_{2,1}, the first sample config
with three vertices) before the one-sided products became the double's
product, and the --format text digests before the command table replaced
the per-command output code."""

import hashlib
import os
import subprocess
import sys

import pytest

from hallalg.cli import main

from conftest import CONFIGS

COMMANDS = {
    "classify": ["classify"],
    "hall-table": ["hall-table"],
    "cartan": ["cartan"],
    "roots": ["roots"],
    "sv": ["sv"],
    "verify": ["verify", "--suite", "all"],
}

GOLDEN = {
    ("a2", "classify"): "7101a6751007063ef2256ef746593e437b041ee15b09c4add8972ac53f3e3348",
    ("a2", "hall-table"): "bb25fd3753ad9a0c4c0f337a0ffe3db37a6fa343758085b97a85f2c9220086e8",
    ("a2", "cartan"): "b1dc89881e7c2c13140d853cf01bffa2b05581665ee1ec6c2f0fdc9408ba6a8b",
    ("a2", "roots"): "91a5dc698086cb616a90e0e445baa23e0ca7735122841f1b6bca3409c352bea3",
    ("a2", "sv"): "f19bc2806f43a0f1e6f5985f75ec945e95d5869559f1f94a657541a4d055e2ac",
    ("a2", "verify"): "2184e53b32dec5c4b288da9811ded3b3ec2f6d1cc540115aac7a7ab863f8666f",
    ("jordan", "classify"): "46cf798de75039d1b498a10c3a11e1ce3918e53189b854a4d010bbdd24406fed",
    ("jordan", "hall-table"): "a54965b856bf1a87e4f16ed8e84749d3cc993b0926fb332bd5406c080a65627d",
    ("jordan", "cartan"): "daeafc9fad80278bbf9a182500f3958e6ed2b47893e57f5a7e9b17103120d1de",
    ("jordan", "roots"): "b4fd308f17ea734e698057df24dc879778b9204e515a391a866edfc61e605544",
    ("jordan", "sv"): "c03cbcc0c0362c63e97a7ad2a9f2a8ea2434f142a0e60b454019f70daa851c2d",
    ("jordan", "verify"): "d98328517e156417454a821979a08526cf0d42c9652040a5ea7011bf6c56d2df",
    ("kronecker", "classify"): "fc9a2146870c9b856253c173060c6e1776aa39bc7ff83fc22f7dc0f8560be67b",
    ("kronecker", "hall-table"): "2e2f02600f18ae011cdaf6e9aadee612f152ab2839917dc1258af058b61ba7e6",
    ("kronecker", "cartan"): "e45e0350fde25b5571908db32dd712ab3752b9cac89fb16f10bb1f390d911ab2",
    ("kronecker", "roots"): "f30ac2ca2bd7ef52e330af9f68753844ed54a849fbe715c7a7401efb06e97163",
    ("kronecker", "sv"): "535c5031bbeb8e998df91f178e3315cd653efc0a1e6438666b3d3d3da8fc11de",
    ("kronecker", "verify"): "241fa99d4dfcdc3df49026194ad03ca1bfc5534df0412d7d564b7d7185f7da9d",
    ("tube2", "classify"): "13f4d2e4f69c976990cded5983fa3969a582e5fa1ea2d095cb168b3cc1275aa6",
    ("tube2", "hall-table"): "1db0168917093be0996a0b60363bbcace173f21ac627afe459470fe284d64981",
    ("tube2", "cartan"): "619d6b373e07fa0ecd0220bb9c9b0d1d29793827f943c812a323be789c87e579",
    ("tube2", "roots"): "19d708eb5f67ab966cb3a06f6169da542653bd55098cfdf010205a640bce6961",
    ("tube2", "sv"): "8f3764a6cf78d84b05b05df6b2a1bced2da69504761d9159cc7293f832ef18ef",
    ("tube2", "verify"): "577cfb267f13177900f55ebe526a6ec463826659a6ac38b58e3ce85eba015dc6",
    ("x2", "classify"): "581ca81958c72bf2d14f8b95d8a1776da50995ece70072ee3f9b5a55f7a136dd",
    ("x2", "hall-table"): "d8b3888c678e44a31caa8360c8733b6348ffceb966c5b6eb0e526ee1747ff1a9",
    ("x2", "cartan"): "25cedd225ae5d666c7cf245d87576e781cc7ec3bf1e3c6a9ffcc749a165a3ee4",
    ("x2", "roots"): "ab83933d0697c7195f5f8d6930f110ebc97d249c730fd8747f8c5c00e4d6ecee",
    ("x2", "sv"): "44846870374acb542b92715b94bc50b340bac98e0d19c686ff0e8efa8843331a",
    ("x2", "verify"): "9696b66f6b328dcf38998be5fa7397855d9c53cc40add8bb56209baf2515afd7",
}


@pytest.mark.parametrize("config,command", sorted(GOLDEN), ids=lambda v: v)
def test_golden_output(config, command, cli_json):
    code, out = cli_json(config, COMMANDS[command])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(config, command)]


def test_json_bytes_do_not_depend_on_the_hash_seed():
    """`verify --suite all` on a2.cfg, run in two processes with different
    PYTHONHASHSEED values, prints the same bytes, and they are the golden ones."""
    argv = [*COMMANDS["verify"], "--config", str(CONFIGS / "a2.cfg"), "--format", "json"]
    script = "import sys; from hallalg.cli import main; sys.exit(main(sys.argv[1:]))"
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(CONFIGS.parent / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, check=True
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == GOLDEN[("a2", "verify")]


# Text output: every command on a2, jordan, tube2 and x2; on kronecker the
# commands other than `verify --suite all`, a non-default roots height and two
# suites that print [skip] lines; and a kac report with a [fail] line, from
# a2.cfg with its height raised above the table bound.  The tube2 and x2
# digests were recorded before one function wrote the text of a class id.
GOLDEN_TEXT = {
    ("a2", "classify"): "cadff1fec3c586bcba430e5068bb039f741337f326f22f4b40bf9998ddb9526e",
    ("a2", "hall-table"): "3a239fe8bee80f97ff10d550cb0b058e57c9ecc33e59d0b53fa6a07c5057e489",
    ("a2", "cartan"): "e3218f0b7533f7bdde7f7b77f09d2e829c65a744d538e7a91ebbaaef4e6df63e",
    ("a2", "roots"): "996a10daa5196179ee0945f3e6ca8f7d803eb2d755700e13feae95341fa3d31b",
    ("a2", "sv"): "d9a3df8184ddcd4602ef96ed86994c239e9cbdfea80278a34fc2e1699b367f1b",
    ("a2", "verify --suite all"): "2e545ee7624fb1b9211ca9ed8025403bc27951a1ef7166d5bd2d8a435f612e00",
    ("jordan", "classify"): "c31c18593e748633298e728797b554e19c00c236b51c95010afbe54490e88ba7",
    ("jordan", "hall-table"): "4105404982e6427401c22cbb83ed5ab013c2f295997d433d04ea8273ce0fbfbe",
    ("jordan", "cartan"): "e25ca77c7cd4a55ddc78d82792cf388697c4729447c82bb025bf41569b728778",
    ("jordan", "roots"): "0c37e500c1b262ea506acd08cea616c6aa0c8301921fd4d5eacde7f96f0ef41d",
    ("jordan", "sv"): "3f45a25fdab85daf201af544b686178634443bee335c846e30ab4b753115e602",
    ("jordan", "verify --suite all"): "fb1f75966e15a66b7b5551f35d9821ebb609bdcfab73404a7557635a64c32de7",
    ("kronecker", "classify"): "014aa98b3df4061ed91928dba3588ca79fd1e8e5a64416322dae4d3d0b3c0753",
    ("kronecker", "hall-table"): "4b5620ef3c639c54e7abcfb774f8df58c0226aafd7c5c6594af812173e0512a4",
    ("kronecker", "cartan"): "9e6ffada82eb6863d6ff54af715508cd8ed928f12eff0faf751e35d350ebf3bd",
    ("kronecker", "roots"): "413e7202121495d6a63a41df22d84c32ed1ef95037219a5b41d734009f566abc",
    ("kronecker", "sv"): "d4575c7152a1eb3b28648ae2153a89a13da713e3ecb4ba2716bacd74d2abea5c",
    ("kronecker", "roots --height 5"): "2d1d1a84b58788df43f6e2226de0ea2589f76cbfceaea1238976c9334e1a47b5",
    ("kronecker", "verify --suite sv"): "913a8f72178e41021e38082ab87a743ae2912f965e6a024a4dd2968211c9953a",
    ("kronecker", "verify --suite composition"): "d07444ce2ddd60fdae69f88a68f108c96bdb123dddfe22e5100e79dccd134bdd",
    ("tube2", "classify"): "e70f55d8646eac210407998a1051db4ae9f6218f0fc87deb0f1ccc64f2057046",
    ("tube2", "hall-table"): "1fe175bec08fe65beaa9709c16db4a04e39f101207ce2d07b8eaa41bf7571029",
    ("tube2", "cartan"): "9e6ffada82eb6863d6ff54af715508cd8ed928f12eff0faf751e35d350ebf3bd",
    ("tube2", "roots"): "413e7202121495d6a63a41df22d84c32ed1ef95037219a5b41d734009f566abc",
    ("tube2", "sv"): "e487e0bbe407ea1985eecb60b9d9e9b29401be67d47d3fadb3b1e95e125d54ff",
    ("tube2", "verify --suite all"): "5397fcc740af3697bdb6edd678d37789985cc1f8bdeed7fb388e97bb11230b48",
    ("x2", "classify"): "56505b84bdc964029d8aa7d931f0fdf02906dfca53ee86455a33e6200b9adcfa",
    ("x2", "hall-table"): "25d828743d4167bbe6004ab02cf91f62ae7bc4c8108d6cf4ec439d3939b272ca",
    ("x2", "cartan"): "66f7fc3ef8ec7d7fff3ad728852335752b61a9020e44dd23c345bf3827558f6f",
    ("x2", "roots"): "89e1de3ced25f250ad5d6c418523df82cc68c2d79929f08c6e9e2ed4a402cd94",
    ("x2", "sv"): "3c14e7ad5d8e2b814e7cbbc11cb95bf2189aa27c276502295c977452021bb169",
    ("x2", "verify --suite all"): "9ab900269663f9b043ba35fe209fec4ab874f9ed9f8dbf2da68ed9ff8e853a7d",
    ("a2-height-5", "verify --suite kac"): "95e7aa8dad6c3c2a06d5dd55e3554c964ab0951c10195be93705bef58e1af0c9",
}


@pytest.mark.parametrize("config,command", sorted(GOLDEN_TEXT), ids=lambda v: v)
def test_golden_text_output(config, command, tmp_path, capsys):
    path = CONFIGS / f"{config}.cfg"
    if config == "a2-height-5":
        text = (CONFIGS / "a2.cfg").read_text()
        assert "height = 2\n" in text
        path = tmp_path / "a2-height-5.cfg"
        path.write_text(text.replace("height = 2\n", "height = 5\n"))
    args = command.split()
    code = main([args[0], "--config", str(path), "--format", "text", *args[1:]])
    assert code == (1 if config == "a2-height-5" else 0)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TEXT[(config, command)]
