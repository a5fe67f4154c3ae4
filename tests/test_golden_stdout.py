"""Byte-identical reports: the sha256 of stdout and the exit code of fixed commands.

A change that moves any exact coefficient, its rendering or the report
layout changes a digest.  Re-capture a digest only for a deliberate change
of output, and say which and why.
"""

import hashlib
from pathlib import Path

import pytest

from qtoric import cli

GOLDEN = [
    (["ifunction", "p2", "--deg", "12"], 0,
     "4862f3ce1735b98ca499dfc0a735d979a2529c002bcfd5511bc22a29c7d3a3af"),
    (["ifunction", "p2_o1_o2", "--bundle", "--deg", "8"], 0,
     "71f2c34e79849bee426b5561c2044f08abad802c48b94d999e60b746782b50f1"),
    (["ifunction", "p2_o1_o2_pi", "--bundle", "--deg", "8"], 0,
     "60bc3f124a7811115ea9a0a7f81341eb268be089ceb8f713d2f844e5727d0fc7"),
    (["ifunction", "f1", "--deg", "5"], 0,
     "6cde0d4b1fbc3320f100079ff8d3a7840d9315e271ffde545604f8c4ef122e57"),
    (["verify-dq", "f1", "--deg", "5"], 0,
     "a534d3cea71c226efaece2cbbb807b01dc477a04ee16dfb2fc60e1c65b20b5d8"),
    (["verify-coh", "p1xp1", "--deg", "4"], 0,
     "914fea1c9f1e7e442bc16ad111a6c419268ee5061f59ced07b8cf565fd52f695"),
    (["verify-recursion", "f1", "--m", "2", "--deg", "4"], 0,
     "6f01eebe3041d3a80d3ca3eb599f29338ff61ff44801447d40dcb81d2de17782"),
    (["integrate-xd", "f1", "--degree", "1,1", "--phi", "p1^2+3/2"], 0,
     "25bc2edc0096f9c7c905b4f4c51623a832af4879d3cf551c61c729125566c27d"),
    # The triple cover: the (1 - mu^r) product has two factors.
    (["verify-recursion", "p2", "--m", "3", "--deg", "4"], 0,
     "2318184de0f9a5a9d52e614db85a10b21a46d428647db30e87e96112685fb682"),
]
# The localization sums, the Kirwan check and the fixed-point data: the trace,
# the direct integral (degree 0) and a sphere space with an obstruction
# column (degree (1, 0) pairs to -1 with the fourth column of F_1).
XD_CLASS = "p1^4*p2 - 3*p1*l2*z^2 + p2^3/(l1 - 2*z) + 5/2"
LOCALIZATION = [
    (["trace", "f1", "--phi", "3*P1^2*P2 - P1 + 5/2"], 0,
     "13399635b0f240db4eb5987140be94462870518b00ecefeae8fbd4bff169dade"),
    (["kirwan", "p1xp1"], 0,
     "b52f424ab9286069cb9050f670dc3e27527b12d3cbaa64ab9434f59097f6986d"),
    (["inspect", "f1"], 0,
     "e93ccadbd253d226c5c684648ca904df79a4730c5855adb53a71b92288162770"),
    (["integrate-xd", "f1", "--degree", "0,0", "--phi", XD_CLASS], 0,
     "93d1463d78aaccbdc26fce39f91bae57c3b47585b1cbf666d720c1860a629964"),
    (["integrate-xd", "f1", "--degree", "1,0", "--phi", XD_CLASS], 0,
     "b055809c074f5be40f5d3d8e6d5dc6e4882288a07cfb25c6d87b097c63e852bf"),
]
# Larger bounds: the bundle walk over 21 degrees, and a word of every F_1 row.
LARGER = [
    (["ifunction", "p2_o1_o2", "--bundle", "--deg", "20"], 0,
     "e76b31bffbcf503c56ac62ef619d16250d4f2ed5a81be547e59f5e9f69b17f35"),
    (["ifunction", "p2_o1_o2_pi", "--bundle", "--deg", "20"], 0,
     "a83d7f59c36bd2a6b1133335216d60aec49705bc81c64ad221d1f86d3025007c"),
    (["verify-dq", "f1", "--deg", "8"], 0,
     "9554c6fdb7f848f99ab34d630b04d161f5d773a2805cf3a96b5a843a9a72e78a"),
    (["verify-coh", "p1xp1", "--deg", "6"], 0,
     "8faf2aa4f68a4e72f217a97bba3b5973c1a8684ad6804ecaeaf2ca54c2287baa"),
]


# Rank 3 and 4: the products (P^1)^3 and (P^1)^4, as the cone-box benchmark
# writes them, where the box walk and the relation words meet many degrees.
RANK_3_4 = [
    (["ifunction", "p1x3", "--deg", "3"], 0,
     "6acdd525703d17198c23b18a234b32bb18d4d26ffffb0e7a32d8945ca97a9bd8"),
    (["verify-dq", "p1x3", "--deg", "3"], 0,
     "6f3a6381a3a4d9be80226060666a12bf5e7c650aa302d61f379688441e44e62a"),
    (["verify-coh", "p1x3", "--deg", "3"], 0,
     "fa6b0d7fe6eccec714e2fa64aad366e144159ebbb8c1624a5e076311803bf4a2"),
    (["ifunction", "p1x4", "--deg", "2"], 0,
     "978f4da6bdb9c9aa092391dc5b56c7ca650eb7d92bdf2b089656637057139790"),
    (["verify-dq", "p1x4", "--deg", "2"], 0,
     "2580d1e23ec44c239b0cc5631c98b712711dcfb1e88ef36f5f7b7e595a864946"),
    (["verify-coh", "p1x4", "--deg", "2"], 0,
     "f7de2d967a3c95e9f09f150852e9051e5309a347cf98bb79dd077008b8842980"),
]


# Rank 3 with proper dual cones (F_2 x P^1, whose F_2 factor has a -2 entry)
# and with blocks of unequal size (P^1 x P^2 x P^2), as the cone-box
# benchmark writes them: the walk's steps move columns of two widths, and
# the relation check meets sources off the effective cone.
RANK_3_BLOCKS = [
    (["ifunction", "f2xp1", "--deg", "4"], 0,
     "e01a7f8f4784bfcffed0dae2c8a03f12755488a6b71285fba9adf70fce59e535"),
    (["verify-dq", "f2xp1", "--deg", "4"], 0,
     "baad55a661d42dbded083dec0b025abb406554a5902a9ea99b8a9d823866c974"),
    (["verify-coh", "f2xp1", "--deg", "4"], 0,
     "d725c60e4d6b05b54de4ee02940f8b2ab4265303ab548598efb82b5e55a854b5"),
    (["ifunction", "p1xp2xp2", "--deg", "3"], 0,
     "c0b3f466d3826ea23776c5ae45479e5b976cb3a45f81e2204c3b604a0252aeca"),
    (["verify-dq", "p1xp2xp2", "--deg", "3"], 0,
     "0dca59b5b7891ca9adb613ed2567267274de6de79409c6501fe231b953f7cf84"),
    (["verify-coh", "p1xp2xp2", "--deg", "3"], 0,
     "8a5ed031bb02019857687e54cea0fcee240b5c3e3496aea211d214e049e03b0b"),
]
# The tests/data models, named by their stem.  Their Mori generators come in
# the order of the fixed-point graph's entries, and verify-recursion walks all
# 30 edges of the 7-ray 3-fold in it, and all 600 of its square (K = 8).  A
# report hashes the model file's text, not its path.
DATA = Path(__file__).parent / "data"
DATA_MODELS = [
    (["inspect", "surface8"], 0,
     "9c61a3f444caf0a00db07961b5e48821fc4af1f34428c259ee139b84d2871026"),
    (["inspect", "threefold7"], 0,
     "d22635c5956b5d654dd5066916ab61f333177b11d938c34287c74c30cd7b57e8"),
    (["inspect", "threefold7x2"], 0,
     "a732d0cd86ba0230bcd0dc3efaeaa60b08c7fc9c15bdb46e2092c1179de8fe5c"),
    (["verify-recursion", "threefold7", "--deg", "1", "--samples", "1"], 0,
     "a7d57285c8f29c7dc26fc9ddfa286baeeb81cfa4328fca53b39e2764b28c491c"),
    (["verify-recursion", "threefold7x2", "--deg", "1", "--samples", "1"], 0,
     "f11d806a548f5264191ace2f86a00d3f53393623c0b5911155110001df700624"),
    # The trace over its 100 fixed points, K = 8: a class in P, L and constants.
    (["trace", "threefold7x2", "--phi", "3*P1^2*P8 - P5/L14 + 5/2", "--samples", "2"], 0,
     "ae20d8c11f15871b9c2901911e3b37c4f15f0e2876c4cb492053f7ee253d8d92"),
]
LINE, PLANE, F2 = [[1, 1]], [[1, 1, 1]], [[1, 1, 0, -2], [0, 0, 1, 1]]


def product_text(name, *factors):
    """The model file of a product: the factors' charge matrices as diagonal
    blocks, omega all ones."""
    width = sum(len(rows[0]) for rows in factors)
    matrix, start = [], 0
    for rows in factors:
        matrix += [[0] * start + row + [0] * (width - start - len(row)) for row in rows]
        start += len(rows[0])
    lines = [f"name {name}", f"matrix {len(matrix)} {width}",
             *(" ".join(map(str, row)) for row in matrix), "omega " + " ".join(["1"] * len(matrix))]
    return "\n".join(lines) + "\n"


def lines_product_text(k):
    """The model file of (P^1)^k: one row [.. 1 1 ..] per factor, omega all ones."""
    return product_text(f"p1x{k}", *[LINE] * k)


MODEL_TEXTS = {"f2xp1": product_text("f2xp1", F2, LINE),
               "p1xp2xp2": product_text("p1xp2xp2", LINE, PLANE, PLANE)}


@pytest.mark.parametrize("argv, code, digest", GOLDEN + LARGER + LOCALIZATION,
                         ids=[" ".join(a[:2]) for a, _, _ in GOLDEN]
                         + [" ".join(a) for a, _, _ in LARGER]
                         + [" ".join(a[:4]) for a, _, _ in LOCALIZATION])
def test_stdout_is_byte_identical(argv, code, digest, capsys):
    assert cli.main(argv + ["--seed", "5", "--samples", "2"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_a_rejected_command_leaves_the_next_report_unchanged(capsys):
    # The parser is built once per process: an argparse failure in one call
    # (trace needs --phi) must not leak into the next call's report.
    with pytest.raises(SystemExit) as exc:
        cli.main(["trace", "p1"])
    assert exc.value.code == 2
    capsys.readouterr()
    argv, code, digest = GOLDEN[4]
    test_stdout_is_byte_identical(argv, code, digest, capsys)


@pytest.mark.parametrize("argv, code, digest", RANK_3_4, ids=[" ".join(a) for a, _, _ in RANK_3_4])
def test_rank_3_and_4_stdout_is_byte_identical(argv, code, digest, tmp_path, capsys):
    name = argv[1]
    path = tmp_path / f"{name}.model"
    path.write_text(lines_product_text(int(name[-1])))
    argv = [argv[0], str(path), *argv[2:]]
    test_stdout_is_byte_identical(argv, code, digest, capsys)


@pytest.mark.parametrize("argv, code, digest", RANK_3_BLOCKS,
                         ids=[" ".join(a) for a, _, _ in RANK_3_BLOCKS])
def test_rank_3_blocks_stdout_is_byte_identical(argv, code, digest, tmp_path, capsys):
    name = argv[1]
    path = tmp_path / f"{name}.model"
    path.write_text(MODEL_TEXTS[name])
    argv = [argv[0], str(path), *argv[2:]]
    test_stdout_is_byte_identical(argv, code, digest, capsys)


@pytest.mark.parametrize("argv, code, digest", DATA_MODELS,
                         ids=[" ".join(a) for a, _, _ in DATA_MODELS])
def test_data_model_stdout_is_byte_identical(argv, code, digest, capsys):
    assert cli.main([argv[0], str(DATA / f"{argv[1]}.model"), *argv[2:]]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
