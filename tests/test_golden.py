"""Byte-identity of valid CLI invocations.

Each case runs through `cli.main` in a scratch directory; the SHA-256 of its
stdout and of its `--out` file (a relative path, so the echoed configuration
does not depend on the directory) must equal the recorded digest.  A change
that alters any number, row or verdict of these outputs fails here; record
new digests only for an intended change of output, and say which.

The grids are small (h = 0.01 at the resolution limit) so all cases together
run in a few seconds; the two solver-kind l1_linf sweeps take most of it.
"""

import hashlib

import pytest

from virtlev.cli import main

_SMALL_LINE = ["--R", "4", "--n", "801", "--ratio", "0.1", "--count", "5"]
_SMALL_RADIAL = ["--R", "4", "--n", "400", "--ratio", "0.1", "--count", "5"]

# name -> (argv, exit code, sha256 of stdout, sha256 of the --out file or None)
CASES = {
    "sweep_free1d": (["sweep", "--op", "free1d", *_SMALL_LINE], 0,
                     "e016d490f59f71d60e2089e3672f499e2086344ff4258d257d3e2bc94ba6ba6d",
                     "f2bde0ddfd069560a58a8852dbf67b952e4c60459706abc97284ef0b76c7f724"),
    "sweep_free2d": (["sweep", "--op", "free2d", *_SMALL_RADIAL], 0,
                     "64f150da7b9c1691809a66f890a18f9552bc54e4c79f5af9ca5d7250e748a30a",
                     "9f7d0d786dcf7cae1ee8955f896d903e0cfc6aff1bf095115cdeb604d88ab433"),
    "sweep_free3d": (["sweep", "--op", "free3d", *_SMALL_RADIAL], 0,
                     "29632830e60c605628a5799e23a83ccf4b779ab20900b24722db22fa1e6e0469",
                     "160d0a3fe4187c31e56bf1e0029842a95ea43cc97badae98c4e35a2e937b024f"),
    "sweep_schrod1d": (["sweep", "--op", "schrod1d", "--ray", "pi/2",
                        "--potential", "well:g=2.4674011002723395", "--R", "4", "--n", "801",
                        "--count", "7"], 0,
                       "45fc629f30fb6c0234eda8f598d3f8b8d7b0ea50422e16e225f3188b06f76880",
                       "acb9ad428c541ea8b19fb82bde5a7aa9aa76e9f5ab352bf58d1906c8bf9ebb94"),
    "sweep_rankone1d": (["sweep", "--op", "rankone1d", *_SMALL_LINE], 0,
                        "ac549bc7f599874cad5cb106f2bdb712b1abd8e4e4203f1b8305d14d2024dec7",
                        "8f1ef19df49215b9172a1f9838c9a1ffa96e9578da0a7ac710d93e2ddd72402e"),
    "sweep_l1_linf": (["sweep", "--op", "free1d", "--flavor", "l1_linf",
                       *_SMALL_LINE], 0,
                      "c81e1e81d4a82f7e7fac3fa954cfeaff207301a285773c7feb9a6a4cfd7c4b63",
                      "a59d14a7ef8c1589519b2e6b6e506530d9ea1b5f19d710cdb2d64f49d1e4beda"),
    "sweep_l1_linf_schrod1d": (["sweep", "--op", "schrod1d", "--potential", "well:g=1",
                                "--flavor", "l1_linf", *_SMALL_LINE], 0,
                               "20194695eefe924b7a1e56525f63892d918768b98509343df73369d0dbf75f38",
                               "14497e63aa5419134400b658f94f066a70e2ffa628e653c91c9ce7c4ee0914e4"),
    "sweep_l1_linf_rankone1d": (["sweep", "--op", "rankone1d", "--flavor", "l1_linf",
                                 *_SMALL_LINE], 0,
                                "33ad2a9cef081252ae20b6de947206650de535a812b0390a18c2ff83f3484522",
                                "afc83d236e3248fa286dff1b36796c8cbba96af429484ad807ab4f984ac18039"),
    "embedded": (["embedded", "--zeta0", "1"], 0,
                 "7a5cb5569a42d38c87d8a448faed5d72d53d7c8f83d81e8d3e019214b46a0f42",
                 "fce97c23107f39e2d8a48af7a27d51a927ce7e2eca4f1633fda4a9ab66c85305"),
    "critical_free1d": (["critical", "--case", "free1d", "--R", "80", "--n", "3201"], 0,
                        "34368f65b76ba04634202dcd5b38547113118c208e892137bd548c0cd717a8b2",
                        "d34808ce0b71c0b99985e6553bd913c737ade86b1a3e2ebdae62984b6f8846cd"),
    "critical_free3d": (["critical", "--case", "free3d", "--R", "40", "--n", "1600"], 0,
                        "87d9715c236afd0f7492cdbcb1f3e21933d612d7c2dcfed1afbdce59d397bb85",
                        "ec6a7f44c7fc9b3ad85071177cae909015373f9f8350ef4889f0db8e2eab6c43"),
    "critical_bump": (["critical", "--case", "potential", "--potential",
                       "bump:amp=1,a=1", "--R", "40", "--n", "1601"], 0,
                      "1564154aaa0000100ea9ec10fdbab3b613b30da0e3939b3edfe322690dedd581",
                      "b10e74a175e67bbe9fb91da9242ef315e0bb53750ae03db3fdc38b6eaf76acd2"),
    # base weighted_gap, doubled null_state: "verdict unstable under radius doubling"
    "critical_unstable_r60": (["critical", "--R", "60", "--n", "2401"], 0,
                              "773bc8a1a9685423637788b1e44d46150b40a603a4d4d1b37beb6053a1370684",
                              "c867eb9d717d62f799a9fa0dc3e80b46c94546f943efc1216fb17340f6ade082"),
    # j_max not a power of two: the last j of the loop is 32
    "critical_jmax48": (["critical", "--jmax", "48", "--R", "40", "--n", "1601"], 0,
                        "e02b3b788f99ec6ad1b500278563dbaa543b80de4aff8a6dbca5c663b37da5bc",
                        "9b28b2200b2293fd7e0b793129d28a42d4fc78c418e724dac0a42704e702fe65"),
    # a single j: no Cauchy increment exists
    "critical_jmax1": (["critical", "--jmax", "1", "--R", "40", "--n", "1601"], 0,
                       "773bc8a1a9685423637788b1e44d46150b40a603a4d4d1b37beb6053a1370684",
                       "1967301084fe83902fe028439ae4756fa90d5385033acab2f090004d912b756e"),
    # ||T||_1 ~ 1e30: the eigen-solve refuses this form, so no certificate may accept it
    "critical_huge_well": (["critical", "--case", "potential", "--potential", "well:g=-1e30",
                            "--R", "40", "--n", "1601"], 1,
                           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                           None),
    "jost": (["jost", "--potential", "well:g=1", "--n", "1601"], 0,
             "b121d05b69a271fcbe919b95699b4478a9c17d8ceabe5c3012cd13e40097241a",
             "7df2f674659136d6fd205b05155be699e84ee27b55d6b7d827e965057e1f47a5"),
    "shift": (["shift", "--z0", "i", "--phi", "1,0.5,0.25", "--n", "128"], 0,
              "d5e80f7a432f494056a4b3de5efc5a9a7887a0bff59058c8ac4549c2573368db",
              "205d492b9f776ce5f1be96b90b979132dee09be3fe814daaf1845371c82bd1f2"),
    "bifurcate": (["bifurcate", "--g", "0.02,0.01"], 0,
                  "2839cf6be5c444c94476ef408bec35c6020553915ddefe397df97a94681a52d0",
                  "3a74805b560c431b7d6ea2904a1d813255ac270becaa5795fe80d607d29b3029"),
    "kernel_2d": (["kernel", "--d", "2", "--z", "-1", "--r", "0.5"], 0,
                  "b6a940c3f4fa9d9642316508d75b5d2eed043442d48a38bcc0d99919bcb62626",
                  None),
    "nullity": (["nullity", "--demo", "jordan3"], 0,
                "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
                None),
}


def _digest(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def run_case(name, capsys):
    """(exit code, stdout digest, --out digest or None) of one case."""
    argv, _, _, out_digest = CASES[name]
    if out_digest is not None:
        argv = [*argv, "--out", "out.csv"]
    code = main(argv)
    stdout = capsys.readouterr().out
    if out_digest is None:
        return code, _digest(stdout), None
    with open("out.csv", encoding="utf-8", newline="") as fh:
        return code, _digest(stdout), _digest(fh.read())


@pytest.mark.parametrize("name", list(CASES))
def test_output_digest(name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, code, stdout_digest, out_digest = CASES[name]
    assert run_case(name, capsys) == (code, stdout_digest, out_digest)
