"""Byte-identity of CLI output: sha256 digests of stdout, stderr and the exit
code of fixed invocations.  The ``series`` and ``verify`` digests were
recorded before the two-parameter weights and products were derived from the
four-parameter ones by substitution, and the ``OTHERS`` digests before every
subcommand printed through one function.

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
# the paper's special cases, each a grid point of a general check
CASES += [("verify",) + case + ("--format", fmt)
          for case in (("sylvester", "--max-n", "6"), ("bessenrodt", "--max-n", "10"),
                       ("boulet", "--trunc", "8"))
          for fmt in FORMATS]

# The other subcommands, with their empty and degenerate inputs.
OTHERS = (
    ("enumerate", "6", "--bounds", "all:2"),
    ("enumerate", "9", "--filter", "mod:2,res:1,even-length"),
    ("enumerate", "0"),
    ("enumerate", "4", "--bounds", "all:0"),  # an empty family
    ("enumerate", "12", "--bounds", "odd:1", "--count"),
    ("stats", "9", "--stat", "la", "--bounds", "all:3"),
    ("stats", "8", "--stat", "lo", "--filter", "mod:2,res:1"),
    ("stats", "0", "--stat", "lo"),
    ("table", "7", "--stat", "lo", "--bounds", "even:1"),
    ("table", "8", "--stat", "la", "--filter", "mod:3,res:1,first-once"),
    ("table", "0", "--stat", "la"),
    ("map", "sylvester", "fwd", "3,3,1,1,1,1"),
    ("map", "sylvester", "inv", "7,2,1"),
    ("map", "pairing", "fwd", "7,7,7,4,4,4,4,2,2,2,2,2,1", "-m", "2"),
    ("map", "pairing", "inv", "14,8,8,4,4,3,3,1,1,1,1", "-m", "2"),
    ("map", "pairing", "fwd", "3,3,2,1"),
    ("map", "binary", "fwd", "2^5,4^4", "-m", "2"),
    ("map", "binary", "inv", "4^4,2^4,1^2", "-m", "2"),
    ("map", "binary", "fwd", ""),
)
CASES += [case + ("--format", fmt) for case in OTHERS for fmt in FORMATS]

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
        'b087f49638253234af1ee216ceeea49a8b4ab39aad14ecfdd6d0c65693c5c6a4',
    'verify all --max-n 8 --trunc 8 --cutoff 9 --format text':
        'e6cdab266809dd8baeedca0f9082e7c5d44187960e45c78d3db5ce6a865f056b',
    'verify all --max-n 8 --trunc 8 --cutoff 9 --format csv':
        '297bf3580faf8395468e84063ba98a41db2cfcc4e3129b9b216eaf2e9079b00f',
    'verify all --max-n 8 --trunc 8 --cutoff 9 --format json':
        '1b54e6791364c8263df3024fed1ba151c5430e21c874e6505b824fa671d657ac',
    'verify sylvester --max-n 6 --format text':
        'ae1898c1d18b0008c48a70a4042be8ab9c3e1fcc5b682e32b6b4f75486ab3bc5',
    'verify sylvester --max-n 6 --format csv':
        '94eefb9885e4306ae86e56660e78d7ab769e58ee66ea48653a60f40a51480da5',
    'verify sylvester --max-n 6 --format json':
        '1a9e9b6c09e7183a1fa168641bd7556239d9e3ed7b3ebe940218228c8e5f7989',
    'verify bessenrodt --max-n 10 --format text':
        '1284621da01fc50b01301fd0b476facf8d08ba4e0fc3cd0f980f1df382a77185',
    'verify bessenrodt --max-n 10 --format csv':
        '51825a6b53853365024adc44e3af0cbbd79ee9c8ae7eaacaa966f3c950d8e507',
    'verify bessenrodt --max-n 10 --format json':
        '0e3f996db694b2782e8b0d5b3dbc2573a5a6553c20a6c53f029b2bd0e7e914ed',
    'verify boulet --trunc 8 --format text':
        'f0f7a2056082dbf9eec2006a66d79324aaf53ed2bcebccd53f85000afa6a689b',
    'verify boulet --trunc 8 --format csv':
        '494f4bacff36bb4951ac8a09bd0fd0c3987321c40cd999923d49e7d9b41ed02a',
    'verify boulet --trunc 8 --format json':
        'e84ff197f9f5f3c5049e849c415669ac78f7bf772a54f7c61ce440fa7a44b693',
    'enumerate 6 --bounds all:2 --format text':
        '8ddf26146c60e51f8e4d1dbbfa9e9a956918551f217a5f5c6e84a9ee272f3b3e',
    'enumerate 6 --bounds all:2 --format csv':
        'd7b39c40e8c37294741cedafce4079f95d5a747c77157e820200b4148d80344f',
    'enumerate 6 --bounds all:2 --format json':
        '6feb788e19b914eba259da69d188fce9d7dafea9630896108c43e56d1ba82d80',
    'enumerate 9 --filter mod:2,res:1,even-length --format text':
        'afe4fed5ec02b824628fa3273fffb3c581f3cffd6db8209b0215bb1f29770b3b',
    'enumerate 9 --filter mod:2,res:1,even-length --format csv':
        'f756ec45c7ff9d222efb2e4bed815fd68b4d343f1dc187321eb86d2931f160f2',
    'enumerate 9 --filter mod:2,res:1,even-length --format json':
        '3de2ced265be7a60257529458e63dbc0110a47cbb3f6e97d5c864aa43a8613cc',
    'enumerate 0 --format text':
        'c0db741729b543578e4a32d76f3c1670bcb72416157da0b0d5dbfee120a81af9',
    'enumerate 0 --format csv':
        '556144ee02919a4c0c173b87900af8ec820d71e1ec3c2b40f5ca6b32f61727b8',
    'enumerate 0 --format json':
        '2a763a06dd69a8957ecf8f57b3d8d725581e44dfa522b6e95316b2f00dce71e4',
    'enumerate 4 --bounds all:0 --format text':
        'afe4fed5ec02b824628fa3273fffb3c581f3cffd6db8209b0215bb1f29770b3b',
    'enumerate 4 --bounds all:0 --format csv':
        'f756ec45c7ff9d222efb2e4bed815fd68b4d343f1dc187321eb86d2931f160f2',
    'enumerate 4 --bounds all:0 --format json':
        '3de2ced265be7a60257529458e63dbc0110a47cbb3f6e97d5c864aa43a8613cc',
    'enumerate 12 --bounds odd:1 --count --format text':
        '3802a08a152207b25bf84599c7ef6b0d8b1fdee137972a486c3dd09c4f1fa090',
    'enumerate 12 --bounds odd:1 --count --format csv':
        '3802a08a152207b25bf84599c7ef6b0d8b1fdee137972a486c3dd09c4f1fa090',
    'enumerate 12 --bounds odd:1 --count --format json':
        '3802a08a152207b25bf84599c7ef6b0d8b1fdee137972a486c3dd09c4f1fa090',
    'stats 9 --stat la --bounds all:3 --format text':
        '139845e08f22ba3cdd11c90db25956ce8b77e3d0828d15ff1d7ea22c1704c6a5',
    'stats 9 --stat la --bounds all:3 --format csv':
        '91d437530435e67472e77d42cedf5227376caac28a47677473b65c2f08ba639a',
    'stats 9 --stat la --bounds all:3 --format json':
        '8ad286d579aea023fb7a1dd52f7c73d4a9b336c1b8a9764a8e6770dc597cc401',
    'stats 8 --stat lo --filter mod:2,res:1 --format text':
        'cbd1f01ec3350c9e443102e0edcde8844a35b9840a40df7c42cf43e27ac4d4aa',
    'stats 8 --stat lo --filter mod:2,res:1 --format csv':
        '56aab2882b5fc0293c9fce470753d9be8594f2f19da17aa5f8389967a5dd78dd',
    'stats 8 --stat lo --filter mod:2,res:1 --format json':
        '8bab2cd8ee817ec7c38b4e48b95a5414190fd831eb6f07031402190b6a49bb0e',
    'stats 0 --stat lo --format text':
        'd6831ba8f6efba622440dc8f92ed9fb5bc221b87e173fdf8652697c60e05ca29',
    'stats 0 --stat lo --format csv':
        '1e2b90386605ea8d6d0d8e6f3127f8ccc09527cf0811aae27969a30eb309591d',
    'stats 0 --stat lo --format json':
        '8f33f042fa1293e4dfd640ee101da120e1306d0c7c64a82cf601c5b9a49cf2d8',
    'table 7 --stat lo --bounds even:1 --format text':
        'bc1793a6b38d202ebf38d9625e7bb635170884ad40b6e9f9302c235119fd52c6',
    'table 7 --stat lo --bounds even:1 --format csv':
        'fdb87ce664f96d454ab2b52053596e1a241f0feebe39c5c4cae742d3815409fd',
    'table 7 --stat lo --bounds even:1 --format json':
        'db4cb7b601ea8379660d2227ae0af0f1eb97610c2d8a686fa38cea51e97a8836',
    'table 8 --stat la --filter mod:3,res:1,first-once --format text':
        '9ca8038a7ff9542690579bc04b92ebe0cd696e4b4f65eeb5735ef25f4f6b41d0',
    'table 8 --stat la --filter mod:3,res:1,first-once --format csv':
        '4be8d7fcd6325cfa6f5ced5e5dae51fb71410ea9683801e99be7fb5525096071',
    'table 8 --stat la --filter mod:3,res:1,first-once --format json':
        'faa31d4d1a984fa8793e4d1acc47d21ddd2fc1493c50e6548d47a74cdd2b794f',
    'table 0 --stat la --format text':
        'c94e54dd99cc30345b8b21de730da57d14a9ec684c6e25261af8c0b26c6876e6',
    'table 0 --stat la --format csv':
        '4fa21850eb026fc81631d4a16552974aa60ab4303e3e1fd2ac4b5aba90a52cfa',
    'table 0 --stat la --format json':
        'f54e3338a593b0a7b6600aa7cd370018c56e1335406aa419fe32769db69febb1',
    'map sylvester fwd 3,3,1,1,1,1 --format text':
        '431194638b418046939561e67900be5537851fb819f4a4d17fa76b59beedd23e',
    'map sylvester fwd 3,3,1,1,1,1 --format csv':
        '907d12708acae31d13f18063be5f74524331d52f2914e679ae661d8eaa7074f9',
    'map sylvester fwd 3,3,1,1,1,1 --format json':
        '3db27cf02f69ffb91a8c45f263bfaf1a4eb006d823aac5e81945cde50202e9c5',
    'map sylvester inv 7,2,1 --format text':
        'f69b10651cf9bf8a3f43ee407e459f0e40ea020d9b9a2dbccdb244a0ad548c97',
    'map sylvester inv 7,2,1 --format csv':
        'df5303040924128e1399965b795b396a087fc6f0d0f5bbe50591900ecafdfe87',
    'map sylvester inv 7,2,1 --format json':
        'abef313d26d1cc8a59660cd74e8bea4048f3a5c5feffd079a8aaa8645d221847',
    'map pairing fwd 7,7,7,4,4,4,4,2,2,2,2,2,1 -m 2 --format text':
        'ac461ecbece951c3fb5332496f53411172bfb1a1b8a56d031fc52867c0a4b23c',
    'map pairing fwd 7,7,7,4,4,4,4,2,2,2,2,2,1 -m 2 --format csv':
        '60b28b395d99d0c2c9239168a1ff8aef7eeb3d32240e945fd529b43426326afe',
    'map pairing fwd 7,7,7,4,4,4,4,2,2,2,2,2,1 -m 2 --format json':
        '5b366580052256f6e370236fd118788b0a108466c75ba4c81dd561a0abbb46b6',
    'map pairing inv 14,8,8,4,4,3,3,1,1,1,1 -m 2 --format text':
        '66b15855d386b4f7ea5db893e16e6e2565d652306905fb2f449b26c6f7152080',
    'map pairing inv 14,8,8,4,4,3,3,1,1,1,1 -m 2 --format csv':
        '6606bf5e42b678c45a90f6177a9a00cfebfd57851b43f7a5b5af1547890f2349',
    'map pairing inv 14,8,8,4,4,3,3,1,1,1,1 -m 2 --format json':
        '36cfb73236c9b8ac084dc32c8bf321f807d855c50b402a5d75f98ae27ce90971',
    'map pairing fwd 3,3,2,1 --format text':
        '671e1706805f6c4a2aca7389173099f61fa4101654e43ac31011535ee8a58d89',
    'map pairing fwd 3,3,2,1 --format csv':
        'f6df5dcfedf45122c8bf4aaacfb65e738c5c1c318e0976b5fe2a099db1374578',
    'map pairing fwd 3,3,2,1 --format json':
        '2730f550b72369ff32acfd5db43fb05f56c1b77adcbc2d56eabcf323deb8a41f',
    'map binary fwd 2^5,4^4 -m 2 --format text':
        'fd443161c9fa1218c58f486f089599147058542ec5a09af022ba68072ef23bac',
    'map binary fwd 2^5,4^4 -m 2 --format csv':
        '5146742257468397a889078ec56c3c9c3ea00fd60d55a50afedd29025a6dff3c',
    'map binary fwd 2^5,4^4 -m 2 --format json':
        '0f420bf70bff86fc18ab80663fe422ab873a60e02f5c5345232c3906960c4b97',
    'map binary inv 4^4,2^4,1^2 -m 2 --format text':
        'bb04999abcc2dcba0698e74bfc75ed1b0c91080cc228be744d408f1bda2fbcc1',
    'map binary inv 4^4,2^4,1^2 -m 2 --format csv':
        '918c364fd6c789dd090050152474ee57e9aeca89fa3af07ab9d773546c9d5b49',
    'map binary inv 4^4,2^4,1^2 -m 2 --format json':
        '78333bf546f0c95e3ab93da4a7cda214586279fd9aec026d9302726e787aad7c',
    'map binary fwd  --format text':
        'b3899170efd068602392e6f18b0288cee87fe31be0f405a7c3adef8e4c98b2a7',
    'map binary fwd  --format csv':
        'f6834040c8c1270d138ebe4d01c06cb6e53ff0ec17a24badd7a0ebae6d3471ec',
    'map binary fwd  --format json':
        '7e60435eff49b39e076c1e92d6c1682e779321e8c2a56977b14ef2d178b0b744',
}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_recorded_digest(argv):
    assert digest(argv) == DIGESTS[" ".join(argv)]


if __name__ == "__main__":
    for argv in CASES:
        print("    %r:\n        %r," % (" ".join(argv), digest(argv)))
