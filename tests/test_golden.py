"""Byte identity of the --format json output of every command on the sample
configs: the sha256 of stdout, recorded before the sign-generic rewrite of
the Hall Hopf operations."""

import hashlib

import pytest

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
}


@pytest.mark.parametrize("config,command", sorted(GOLDEN), ids=lambda v: v)
def test_golden_output(config, command, cli_json):
    code, out = cli_json(config, COMMANDS[command])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(config, command)]
