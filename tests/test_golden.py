"""Byte-identity of CLI output: sha256 digests of stdout, stderr and the exit
code of fixed invocations, recorded before the two-parameter weights and
products were derived from the four-parameter ones by substitution.

Wall times are blanked before hashing.  After an intended output change,
print fresh digests with ``PYTHONPATH=src python tests/test_golden.py`` and
replace ``DIGESTS``.
"""

import contextlib
import hashlib
import io
import re

import pytest

from eulerparts.cli import main

FORMATS = ("text", "csv", "json")

SERIES = (
    ("partition-gf", "-N", "20"),
    ("pairing-gf", "-m", "1", "-N", "16"),
    ("binary-gf", "-m", "1", "-N", "16"),
    ("boulet", "-N", "10"),
    ("restricted-boulet", "--i", "0", "--k", "1", "--bounds", "1:1,2:3", "-N", "12"),
    ("restricted-boulet", "--i", "1", "--k", "2", "--bounds", "3:1,5:3", "-N", "12"),
    ("rows", "--bounds", "all:3", "-N", "12"),
    ("halves", "--bounds", "even:1", "-N", "12"),
    # odd strict caps, legal only for the half-cells weight
    ("halves", "--bounds", "all:2", "-N", "12"),
    ("halves", "--bounds", "2:0,5:3", "-N", "12"),
    ("enumerated", "--weight", "abcd", "-N", "9"),
    ("enumerated", "--weight", "rows", "-N", "9"),
    ("enumerated", "--weight", "halves", "-N", "9"),
    ("enumerated", "--weight", "la", "-N", "9"),
    ("enumerated", "--weight", "lo", "-N", "9"),
    ("enumerated", "--weight", "la", "--bounds", "all:1", "--filter", "mod:2,res:1", "-N", "12"),
)

CASES = [("series",) + case + ("--format", fmt) for case in SERIES for fmt in FORMATS]
CASES += [
    ("series", "rows", "--bounds", "all:2"),
    ("series", "restricted-boulet", "--bounds", "1:2"),
    ("series", "restricted-boulet", "--i", "1", "--k", "2", "--bounds", "2:1"),
    ("series", "pairing-gf", "-m", "-1"),
    ("verify", "all", "--format", "json"),
]
CASES += [("verify", "all", "--max-n", "8", "--trunc", "8", "--cutoff", "9", "--format", fmt)
          for fmt in FORMATS]

ELAPSED = (
    (re.compile(r'"elapsed_ms": \d+(, )?'), ""),         # json
    (re.compile(r"\(\d+ ms\)"), "(N ms)"),               # text
    (re.compile(r",\d+$", re.MULTILINE), ","),           # csv, last column
)


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue()
    if argv[0] == "verify":
        for pattern, blank in ELAPSED:
            text = pattern.sub(blank, text)
    blob = "%d\n%s\n--stderr--\n%s" % (code, text, err.getvalue())
    return hashlib.sha256(blob.encode()).hexdigest()


DIGESTS = {
    'series partition-gf -N 20 --format text':
        '43a6bd25e5eb23bc09956576cd3c30f8936547e4e07140d48eaba4e29669e542',
    'series partition-gf -N 20 --format csv':
        'c0b749503bbdea9fa571723ac4845e19c55a1e1da85fedd5187d88892e568d0b',
    'series partition-gf -N 20 --format json':
        '4b98b09d02315807a5ec9fe8a806a09f62f6e405f537877bfa3ae2b10c18d7b0',
    'series pairing-gf -m 1 -N 16 --format text':
        '243a4f683f4dd54b91bbe65e54e0ae88061682271fb2ad3dff6eb692a8159407',
    'series pairing-gf -m 1 -N 16 --format csv':
        '7249594f8bf2098749b875d1196fbeed27554861d9a6e3dc05cadcd3aafdb5a6',
    'series pairing-gf -m 1 -N 16 --format json':
        'eb09febae965fa37ba39f5ffb7b68305424bafaf159555b9f4e65764c3e0bc78',
    'series binary-gf -m 1 -N 16 --format text':
        'bdb7d2a6e4269916040e0e7bf2cdd5c2b4246def2a0846cf6c4c7cb9e4f0e905',
    'series binary-gf -m 1 -N 16 --format csv':
        '54ffeb7afb88769ef20c331ae0e1798903ae15ff5c714dad8e29b90ba6911694',
    'series binary-gf -m 1 -N 16 --format json':
        '00929a5a68e9522e533df27902ce7a102a78c171e5326f15e60636e46e203d59',
    'series boulet -N 10 --format text':
        '8d2da137c0fddbcfc111d6a63e81bcc3105bae48bb4ac481cf28a7c3fea95de5',
    'series boulet -N 10 --format csv':
        'f39ee5caf42a896a597ff425d902909db304f6d7ac33944b4a59769a9832589c',
    'series boulet -N 10 --format json':
        'ff0dda1f45bc6d188c5c50a30c44cc1daba186af5c766998cb9c03be567b491d',
    'series restricted-boulet --i 0 --k 1 --bounds 1:1,2:3 -N 12 --format text':
        '45764b5135889220fb792d2844652e91edb00171cd3cb5503b62f08376189ea2',
    'series restricted-boulet --i 0 --k 1 --bounds 1:1,2:3 -N 12 --format csv':
        'a1f8f362a791f747927472ff5eed4a7a036b09f3d2d313d2e0bb4a2864af8b22',
    'series restricted-boulet --i 0 --k 1 --bounds 1:1,2:3 -N 12 --format json':
        '35e56e5469a257b3534654f169e7c40afd94486a3fbb99ba8a150899edd16c0c',
    'series restricted-boulet --i 1 --k 2 --bounds 3:1,5:3 -N 12 --format text':
        'f5984b6fc86cc0d3c5f53f5b534e026d917386da82403d24cd759bd682dab5b1',
    'series restricted-boulet --i 1 --k 2 --bounds 3:1,5:3 -N 12 --format csv':
        'c12d4712841ca9523be9613baed4bbe7b8a2447a31e9545423b5d005b05ca2c6',
    'series restricted-boulet --i 1 --k 2 --bounds 3:1,5:3 -N 12 --format json':
        'ba1412b298428681891d73016a6608a00df4dd6dbb16ac0b1c14fd0c9a147eab',
    'series rows --bounds all:3 -N 12 --format text':
        'cadfb49f3e7fccee80a5a2aff4e311a530e4fd9ca50c13a96059cf3f192a08ac',
    'series rows --bounds all:3 -N 12 --format csv':
        'e3df8c7ccf9e7982ba1d9a6b305d0853070d519b99cd8b5dcafaa255ee49b81f',
    'series rows --bounds all:3 -N 12 --format json':
        '8d4a3bbf0f8c8a9db208e9eeea5ecdd2828c2df43be3a2c642fe1d5becbc2619',
    'series halves --bounds even:1 -N 12 --format text':
        'cadfb49f3e7fccee80a5a2aff4e311a530e4fd9ca50c13a96059cf3f192a08ac',
    'series halves --bounds even:1 -N 12 --format csv':
        'e3df8c7ccf9e7982ba1d9a6b305d0853070d519b99cd8b5dcafaa255ee49b81f',
    'series halves --bounds even:1 -N 12 --format json':
        '8d4a3bbf0f8c8a9db208e9eeea5ecdd2828c2df43be3a2c642fe1d5becbc2619',
    'series halves --bounds all:2 -N 12 --format text':
        '8dcb94bd4c6acf0b427b6a12497dfb6d52be222f0f3e71bc7e0793cac4f4b04a',
    'series halves --bounds all:2 -N 12 --format csv':
        '0dfba76aeb7476db68afbb78f15488be7273473ae1a2acbc59b821c1d7515c89',
    'series halves --bounds all:2 -N 12 --format json':
        'f53c79426d8c85f1715ccb8b76cfafa062fda4b858fd8e684ba3349b2bbffed3',
    'series halves --bounds 2:0,5:3 -N 12 --format text':
        '071341c727cc790dcedf158ce7712af35ffae79d636406608dad52f17be9a597',
    'series halves --bounds 2:0,5:3 -N 12 --format csv':
        '538470d5a5d77e0441d26129acdf7bb2af2dbc1d703607b5af45195418b5c7b5',
    'series halves --bounds 2:0,5:3 -N 12 --format json':
        '456725c0c65669c8976b833aa86f53a09d77427fb735fe80dd7efc43d9035a54',
    'series enumerated --weight abcd -N 9 --format text':
        'dcf2655ae36494b803c143438b8d8f8bad966c53a9f112bc4d92a20d9fe19b67',
    'series enumerated --weight abcd -N 9 --format csv':
        'cedbdd914878fd54399a948d1ec4700de316700492789be7f04ddf07ff482c33',
    'series enumerated --weight abcd -N 9 --format json':
        'e60950eea8200951432925691ca2c27b5e1f8ed84d60ca135da0a3cf8557aa2e',
    'series enumerated --weight rows -N 9 --format text':
        'dffa9ec0fb62d1256ebca86b5bae16d731b5b62270b9e24b5849ceab3b7f72d1',
    'series enumerated --weight rows -N 9 --format csv':
        'c1bcef05e4b87d007cf621c2ccf66f6a2e3104ae7dba51186a9c27757bdb15ec',
    'series enumerated --weight rows -N 9 --format json':
        '0d9da94457816c36038fa1fde412a65d4f0a4a79adeae39c24d547645f832cec',
    'series enumerated --weight halves -N 9 --format text':
        'dffa9ec0fb62d1256ebca86b5bae16d731b5b62270b9e24b5849ceab3b7f72d1',
    'series enumerated --weight halves -N 9 --format csv':
        'c1bcef05e4b87d007cf621c2ccf66f6a2e3104ae7dba51186a9c27757bdb15ec',
    'series enumerated --weight halves -N 9 --format json':
        '0d9da94457816c36038fa1fde412a65d4f0a4a79adeae39c24d547645f832cec',
    'series enumerated --weight la -N 9 --format text':
        '7e7714ee3f5c390e8b6bc794ae6b3de9f89cfe9b86f2c85273cda2dff84e285b',
    'series enumerated --weight la -N 9 --format csv':
        '01c29cd64a54f66e83535f7accb72b6b5edb340daca2bc16dc8eadc1ddb27e24',
    'series enumerated --weight la -N 9 --format json':
        'ab24d56bac7f8c9f49cfd94e52215ac1c2ebeb592807d289eda30a2cd8ae8954',
    'series enumerated --weight lo -N 9 --format text':
        '7e7714ee3f5c390e8b6bc794ae6b3de9f89cfe9b86f2c85273cda2dff84e285b',
    'series enumerated --weight lo -N 9 --format csv':
        '01c29cd64a54f66e83535f7accb72b6b5edb340daca2bc16dc8eadc1ddb27e24',
    'series enumerated --weight lo -N 9 --format json':
        'ab24d56bac7f8c9f49cfd94e52215ac1c2ebeb592807d289eda30a2cd8ae8954',
    'series enumerated --weight la --bounds all:1 --filter mod:2,res:1 -N 12 --format text':
        'c09c3dac9087adc23c886dbd994a523704e0d707f8794ee8e97d9346dcb6528a',
    'series enumerated --weight la --bounds all:1 --filter mod:2,res:1 -N 12 --format csv':
        '5dc62fe7ce84154b18b19a7cfa398029e46a397a13cf345383c986d88d6271e2',
    'series enumerated --weight la --bounds all:1 --filter mod:2,res:1 -N 12 --format json':
        '04ec999a29e1ba5a47327e0bea616dbe530d7af9b1e504fc740cf040faa49be0',
    'series rows --bounds all:2':
        '084010f05abe293de4017e4f4b2fd968cbde7cb80505e2d48a3aed166ad61b97',
    'series restricted-boulet --bounds 1:2':
        '084010f05abe293de4017e4f4b2fd968cbde7cb80505e2d48a3aed166ad61b97',
    'series restricted-boulet --i 1 --k 2 --bounds 2:1':
        '50afd8867b4aed669017589bba4320f56c682583fdba04938f1b1e59e310110d',
    'series pairing-gf -m -1':
        '678d4d7661f5479916231c52d174d7849a79e08bc143dc32dcbe966431e139c0',
    'verify all --format json':
        'd41c38c1ebd45d3609baa6de9f7cd6ef6a45a76631328e35344ffc82d09c886e',
    'verify all --max-n 8 --trunc 8 --cutoff 9 --format text':
        '5f4b048de12e4ac081d04297dfebaa0db57e753b4b42f1c0b4b3e0692c8f1743',
    'verify all --max-n 8 --trunc 8 --cutoff 9 --format csv':
        '116473b6a92967b34bc48621d91f8610f61ab68535d4d8ae5932942dc6b99035',
    'verify all --max-n 8 --trunc 8 --cutoff 9 --format json':
        '22e1558ccb56aa9fb9644700dab02f9f15b5d5c8b44e152665fa13d459db4cd8',
}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_recorded_digest(argv):
    assert digest(argv) == DIGESTS[" ".join(argv)]


if __name__ == "__main__":
    for argv in CASES:
        print("    %r:\n        %r," % (" ".join(argv), digest(argv)))
