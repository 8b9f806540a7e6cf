"""Golden stdout: the SHA-256 of stdout and the exit code of fixed CLI
commands, run in-process through ``cli.run``.

The set covers the four report kinds in the three formats and ``verify``
in the three formats on seven fixed systems, ``reflexive -n 2..4`` in the
three formats, and malformed inputs (whose error text goes to stderr,
which is not pinned).  A change that is meant to keep the output
byte-identical must leave every digest as it is; a change that alters an
output on purpose updates its digest and says so.

``GOLDEN_LARGE`` pins JSON reports of the size the benchmark's
``report-session`` writes (0.8-1.4 MB each): the spectrum, Jordan and
filtration reports of the three prime weights 1319, 1321, 1361 (mu 4001),
the Frobenius report at mu 96 and ``reflexive -n 5``.  Their digests were
taken from the code that still wrote JSON with ``json.dumps(doc,
sort_keys=True, indent=2)``, before ``report``'s own emitter replaced it.
It also pins the rows path at the same sizes, the spectrum CSV of mu 4001
and the Frobenius table of mu 96, with digests taken while the sigma
columns were still built from ``Fraction`` spectral numbers.
"""

import contextlib
import hashlib
import io

from weightspec.cli import run

GOLDEN = {
    "spectrum -w 1,2,12,15,30 --format json": (0, "a22a6afbad8987eadcf6270dac0d56cf3f67e7a5e4253ded3057ce0b4fd690b2"),
    "spectrum -w 1,2,12,15,30 --format csv": (0, "2d904597965b13cc77b6ffbfd06853895696fe2e1f3036fefbb09a84c0746bc9"),
    "spectrum -w 1,2,12,15,30 --format table": (0, "f0332aed853f72a2101f0b5f400fffb3580660ffa00dccee306725b0aafa6e9b"),
    "frobenius -w 1,2,12,15,30 --format json": (0, "7a8733b467d035459326d3fe6c863cebbeb45dcd3a5b8aac13fbd46a48136254"),
    "frobenius -w 1,2,12,15,30 --format csv": (0, "c3734f7e1370322f882ac4d51acff3f47ed53ad2af5c19712f5ddba9614bc34b"),
    "frobenius -w 1,2,12,15,30 --format table": (0, "bc070c47653af351ba799fddfe886da258eafb7333ecaea801fa8848ed50666f"),
    "jordan -w 1,2,12,15,30 --format json": (0, "99ca95b4aff06ce78b973204a2b7b7b445b2e8e0677a977c1f897e7eb4fda3a2"),
    "jordan -w 1,2,12,15,30 --format csv": (0, "13ea0a166a34e80ced0c7abc9c1a6ab1b7ffc0a1c27ba4ffd84fb5f2ba31d654"),
    "jordan -w 1,2,12,15,30 --format table": (0, "226a74a3edd98c960c0d22366b75d4ecea26105926eed5be471700149cb56ed4"),
    "filtrations -w 1,2,12,15,30 --format json": (0, "62081525b27bd52afd0ab852d9407641bfe444b79d6bf118ec7f007777ce079c"),
    "filtrations -w 1,2,12,15,30 --format csv": (0, "b7e433275ee4ddad101ad3951e67be56b822b64c6868aceda2bd61187facd5a5"),
    "filtrations -w 1,2,12,15,30 --format table": (0, "855c22b8e40f1d2ad146e5280b4f862ba9cfba5992034846e26dd59816c58acf"),
    "verify -w 1,2,12,15,30 --format json": (0, "66b6feb9b9f63227ad3d92724c757bf8a418c03b8758093b0f44490cce2f9a12"),
    "verify -w 1,2,12,15,30 --format table": (0, "a2fda0a138142973ee865b2474742b584dbef84f80d8ad70062c43fb93f998a3"),
    "verify -w 1,2,12,15,30 --format csv": (0, "32a9242c90aeade68966da5bb6007c877770c12207f3bd56f009cfef7603cd34"),
    "spectrum -w 3,5,7 --format json": (0, "c0e79124a040346b3441d36c6a80118508fd3a1cc008c572785333e6e0eb2a4a"),
    "spectrum -w 3,5,7 --format csv": (0, "6141f6435302fc5ab8aa155b4a5996d9cb49291f2c1c32fe8c7608a5bd4154df"),
    "spectrum -w 3,5,7 --format table": (0, "cb87e141dd0b6a4e0a032238cf4e809627e5786881098a5e95e1478cf3023ae8"),
    "frobenius -w 3,5,7 --format json": (0, "66cba68cefb7130c868755b375bbae0c4836893e7a3db798f9cfa28b7e71e1fd"),
    "frobenius -w 3,5,7 --format csv": (0, "ad89aa8f153b3375ae545c647463c7ce156638cd991a583a081691cbf78ae83e"),
    "frobenius -w 3,5,7 --format table": (0, "fd618bf1ac94bd654f9c4afb347c304ee2b90bb74de301ed46a6437faaeed162"),
    "jordan -w 3,5,7 --format json": (0, "72e728c6f82d32bc0956671abd9847e133cd4d980aafcb43b143a96952db577f"),
    "jordan -w 3,5,7 --format csv": (0, "856d6c312a9821dd2c80cb6f319c34e0bf65f7ef0f0ba2db8d54c5009499582f"),
    "jordan -w 3,5,7 --format table": (0, "8aeba410c6701a49af84e6430eab4b36a819f60b14757e63f70dcf59181ea198"),
    "filtrations -w 3,5,7 --format json": (0, "b3bdabcf88b85fa6c112e323120cea2757c166ae857606f19a863a2108f474b3"),
    "filtrations -w 3,5,7 --format csv": (0, "62dd81ea3abae165b6b213ff3084594b462f9f65d8f66e7ed8a3c187521277f6"),
    "filtrations -w 3,5,7 --format table": (0, "ce62539746f2bfeec2ae24af1806b0fd91f8beae978c638f027da5a25c4ecca3"),
    "verify -w 3,5,7 --format json": (0, "7e1606f83dfc917720e99677bf17228c6fcfa1037e5fc05a4e85ff9e5039600b"),
    "verify -w 3,5,7 --format table": (0, "a2fda0a138142973ee865b2474742b584dbef84f80d8ad70062c43fb93f998a3"),
    "verify -w 3,5,7 --format csv": (0, "32a9242c90aeade68966da5bb6007c877770c12207f3bd56f009cfef7603cd34"),
    "spectrum -w 1,1,1 --format json": (0, "4a650c7439ff26f2bc7a414f340bf563130743b17002955ab218a453dfbe984d"),
    "spectrum -w 1,1,1 --format csv": (0, "940083a452b437d8604b763a9d220668fdb1c9ef282146ba9f2560ec3ba8c134"),
    "spectrum -w 1,1,1 --format table": (0, "19cd6c62126f12d83475ee554228017945e21cb37a2a19dceed1d25c9422c557"),
    "frobenius -w 1,1,1 --format json": (0, "3328c8daed71920190f388df8df9c4ebafa204ef99796b40464e895e44894254"),
    "frobenius -w 1,1,1 --format csv": (0, "047fa3c6685f80f7164c6d2745301ef4e9e7da266f2638c3591646e3a574354a"),
    "frobenius -w 1,1,1 --format table": (0, "3b7c91fa1d111003f3b5e6c9142fc412f1d34f2f526a7008e532e156e47cab74"),
    "jordan -w 1,1,1 --format json": (0, "07f174d40df8e19baa9a96b5945eb626ee855df211b6e94af5f7563f211f928e"),
    "jordan -w 1,1,1 --format csv": (0, "73f54141ca8af5bf476770ebc228b5f5cb5a5130e66b9d19a4748b29bd1d6862"),
    "jordan -w 1,1,1 --format table": (0, "720e67630d5eb108f5f3a7b110f46b72ffa4df642b21657b0b84d48a7b513c1c"),
    "filtrations -w 1,1,1 --format json": (0, "790587c928ad6d1f72bea2a00c7534b1c3bc91fdeac99cfaa66bb04299093d6f"),
    "filtrations -w 1,1,1 --format csv": (0, "ad918ff7318a56c95b5881e3b8cc0218683d9300ca2d9916988e54f8cde2f39d"),
    "filtrations -w 1,1,1 --format table": (0, "266ce5d8801aa26a94cc0ff183531d1c6f61fa9e21ebfbfac517d1ca9c48cf77"),
    "verify -w 1,1,1 --format json": (0, "e9a8fb07249d33824374faab7225010d329faa808a17f2b75b4e05cb6f79bc27"),
    "verify -w 1,1,1 --format table": (0, "a2fda0a138142973ee865b2474742b584dbef84f80d8ad70062c43fb93f998a3"),
    "verify -w 1,1,1 --format csv": (0, "32a9242c90aeade68966da5bb6007c877770c12207f3bd56f009cfef7603cd34"),
    "spectrum -w 2,3 --format json": (0, "4d750a3f35a9670c6c25bb7e9ccfacb210704a5894458e8c90a148dc22d8b373"),
    "spectrum -w 2,3 --format csv": (0, "c73de8cc6b429a05f92022aae12720680926a8e1d14da06f710b186af31cc12e"),
    "spectrum -w 2,3 --format table": (0, "57a72fde9491351782774fe8bd1d87161e8fc29e87e46430dafb31b8fe7f4bf3"),
    "frobenius -w 2,3 --format json": (0, "af1a3fdbde2459c0750bd64eb74d3515f3ed7811f7f8eedddd6ea6c33a928ee1"),
    "frobenius -w 2,3 --format csv": (0, "d3abe5eacedea3d3a61919e6cae91108a7c165aaac9b1765048765fe22587c2f"),
    "frobenius -w 2,3 --format table": (0, "5cebbbf74894ac6f1b3f98287ddb25af3698de9f66dfc8a52a6329d8f827b200"),
    "jordan -w 2,3 --format json": (0, "496e926f86155ae30f447d7f9a8a7cd6491b1c5eb4ade987d9ab67d9823393d5"),
    "jordan -w 2,3 --format csv": (0, "481d144ada9b6af003bbfc7ee2740c1844018c7e18c63194209846440dbaaa54"),
    "jordan -w 2,3 --format table": (0, "6dbc3932e9b1c5838c85f48e75105a54801b8d03e6163b29702888c1eac5b787"),
    "filtrations -w 2,3 --format json": (0, "fe8b239557f16772650bcaaeb2d0911a12be0ee9b3c3343a9919ebc9cbb2f983"),
    "filtrations -w 2,3 --format csv": (0, "cc4a340ab6eb5a868d84136d82ba3cfa6e42dc51936131fc37485ad73c92a152"),
    "filtrations -w 2,3 --format table": (0, "dd3ebc171abe6ad160d29a2d8d198226e1d60c16b639a3edf39be104a715a5bc"),
    "verify -w 2,3 --format json": (0, "45e12cd033e403d796c8823f85d5818f717ebda7206eadd569be68a56e4b5c06"),
    "verify -w 2,3 --format table": (0, "a2fda0a138142973ee865b2474742b584dbef84f80d8ad70062c43fb93f998a3"),
    "verify -w 2,3 --format csv": (0, "32a9242c90aeade68966da5bb6007c877770c12207f3bd56f009cfef7603cd34"),
    "spectrum -w 1,1,2,4 --format json": (0, "4f228e9b6d5eae6252c391e0fde11a06993b917203ce425ed2d4f650795ff8e2"),
    "spectrum -w 1,1,2,4 --format csv": (0, "46b5c0d647a6425423a309cb4974e34f3ade74fde535e9067115480dd291b632"),
    "spectrum -w 1,1,2,4 --format table": (0, "db75a452744cd360b59293080dfba8079222a68528ef77cf1b2d999ec6f7c6fe"),
    "frobenius -w 1,1,2,4 --format json": (0, "d04e1105e4450c34d3add5b0c1ec8d43e5cc2dfd031ac6a1917f6b0f5a1d92cd"),
    "frobenius -w 1,1,2,4 --format csv": (0, "ba4a12771621407e2208c24f3ba2cd70a2c75053256aa13f7000eb8e71302272"),
    "frobenius -w 1,1,2,4 --format table": (0, "8e295fdf307ed01bd95d58362e9f735d3a36e27da1be8a719012d4c3e0f63b0c"),
    "jordan -w 1,1,2,4 --format json": (0, "ded76ac49387e5b44f3518c6c6587f8e24c978603e7f6f495b851c601f6fc3a4"),
    "jordan -w 1,1,2,4 --format csv": (0, "0cccec2ced8c00b049d0f05ce285e0ddd1461d52a8edffa4b2aeb44561dc2a0e"),
    "jordan -w 1,1,2,4 --format table": (0, "22e6f2fc1c5a0d77722a69c2a0aa6f42e6d6b6bd8d468e692107f712c2d2c936"),
    "filtrations -w 1,1,2,4 --format json": (0, "18d6e7d4dfead2bcc99de67fe9bc75a7c0b235acc477127e28f50926938f2d47"),
    "filtrations -w 1,1,2,4 --format csv": (0, "ee3af1155b3f8c950e2e134070cfbeb3b0f9ed4c4b5da9d33b385a339f369fec"),
    "filtrations -w 1,1,2,4 --format table": (0, "ab6c22a000b64cad5de735868ff9135a9178c1311b2e00464139a7e3bbc423dc"),
    "verify -w 1,1,2,4 --format json": (0, "1bad3a6b0d4caaf2aa46cc14b4aafe79969007432dba096571179994e2be1f1f"),
    "verify -w 1,1,2,4 --format table": (0, "a2fda0a138142973ee865b2474742b584dbef84f80d8ad70062c43fb93f998a3"),
    "verify -w 1,1,2,4 --format csv": (0, "32a9242c90aeade68966da5bb6007c877770c12207f3bd56f009cfef7603cd34"),
    "spectrum -w 4,6,9 --format json": (0, "2803a08a33486efc61a863301ae300cccb893dc80f29d41c7ba129bab2b7986f"),
    "spectrum -w 4,6,9 --format csv": (0, "48e1e6e36e5a7fd8bd4998863f792988fb533fde38385b388663727f80ec29b0"),
    "spectrum -w 4,6,9 --format table": (0, "a485afad12ee6aef94b9005ea3b2afaf1e86ce7e6d2b8f8e0adceb982c561459"),
    "frobenius -w 4,6,9 --format json": (0, "1c3a06902ab2e62ead2cd0acdfd510c4d52ac197f47db5407ec8ad6c71d00a82"),
    "frobenius -w 4,6,9 --format csv": (0, "928166a2a502099c37eb813916f5d02856799efdd8669dbb55f285184c997514"),
    "frobenius -w 4,6,9 --format table": (0, "fa0d9d17ee98cd613f78a6bc1b24439ee3bf9d191f805fa0a5f367980885c471"),
    "jordan -w 4,6,9 --format json": (0, "74518516dfd596a96964b168a95be3f9604a847c3fe8b72f5aab9b67d0e63260"),
    "jordan -w 4,6,9 --format csv": (0, "5ddf6c8fcf1889d2898e2492ad3bd218d14d62a476406b6cd77b4c4b3c75f6b5"),
    "jordan -w 4,6,9 --format table": (0, "46918de9c7ffd9285d62a32eebeea31b5a1d0bcf868297dfecfef3337e5d751f"),
    "filtrations -w 4,6,9 --format json": (0, "eff223d7c6b1dc4c1338eb59a9e6e1dd1d3808a667711990db82a938752117d6"),
    "filtrations -w 4,6,9 --format csv": (0, "8f27f2e1470243cde78e1a2bcad39400983710b6fc993b06a8916a96bc61cbab"),
    "filtrations -w 4,6,9 --format table": (0, "567baef671a2933dd411a5071264ffe601a83d5e2e7ede2a0f62de213c6f368f"),
    "verify -w 4,6,9 --format json": (0, "5a5b72c907d75db7794664a480d31d0d52d833f131f6af476b5db824673bcf4d"),
    "verify -w 4,6,9 --format table": (0, "a2fda0a138142973ee865b2474742b584dbef84f80d8ad70062c43fb93f998a3"),
    "verify -w 4,6,9 --format csv": (0, "32a9242c90aeade68966da5bb6007c877770c12207f3bd56f009cfef7603cd34"),
    "spectrum -w 1,2,3,4,59 --format json": (0, "8dbded75b818228588042254bfc46d81ffac07165074f769e51bad909c196bc9"),
    "spectrum -w 1,2,3,4,59 --format csv": (0, "251ae09d33adccb9d8ac6a87631912f8854c2cc33df9c72946afb82689bfb185"),
    "spectrum -w 1,2,3,4,59 --format table": (0, "d7f9c39047fdec264ee40265817a3610d1e2f73743a937e0a2502c8cc5bcc3a6"),
    "frobenius -w 1,2,3,4,59 --format json": (0, "301bcee417eefee66bdd22ed3b7b72d9045f9f5a515e9783767669f9a559f758"),
    "frobenius -w 1,2,3,4,59 --format csv": (0, "9e3a8c317407e0383b7b862def916d340837291b2a571d0d02a4f94bb83ba2b9"),
    "frobenius -w 1,2,3,4,59 --format table": (0, "09b612fd1557418196037da6be64ae34ab5ae9447feb2128227a8257a92301d1"),
    "jordan -w 1,2,3,4,59 --format json": (0, "c6e3bcfb0e5d78dfb517311a0026780a8aaa90d9fb28f32fce7f07954b40a3ca"),
    "jordan -w 1,2,3,4,59 --format csv": (0, "1a0b29f6b7c47597062b90f175d447f1b5ffb9bfd0a6262b6da898e3446c4aa8"),
    "jordan -w 1,2,3,4,59 --format table": (0, "298d8a29539f956891376e85813767afb790298efcdf276fcb155353608bda69"),
    "filtrations -w 1,2,3,4,59 --format json": (0, "35029692feebb780ad67a965ea510875bfecf69bd2e14df984bfa563931448da"),
    "filtrations -w 1,2,3,4,59 --format csv": (0, "007b84f1076c12e0731dd04b4903ef3251a3b8d78fea4ae68d7a2555fffe83d4"),
    "filtrations -w 1,2,3,4,59 --format table": (0, "3cef447d0aac5636a52bc1038a380d3660daf5600cbd0a55e714daba57393dfd"),
    "verify -w 1,2,3,4,59 --format json": (0, "616960d44b48342a670c774a0dfe341421c132b5519381e421dea1d1c2002ffa"),
    "verify -w 1,2,3,4,59 --format table": (0, "a2fda0a138142973ee865b2474742b584dbef84f80d8ad70062c43fb93f998a3"),
    "verify -w 1,2,3,4,59 --format csv": (0, "32a9242c90aeade68966da5bb6007c877770c12207f3bd56f009cfef7603cd34"),
    "reflexive -n 2 --format json": (0, "af1a20eab45f85b454f409f094508a8c4bf527b312c6a3ea2ec10c369a785203"),
    "reflexive -n 2 --format csv": (0, "57ab54eb57a31ff97dcb90fd2ac89161df4b3849ced8e342d867fbe0100aed2c"),
    "reflexive -n 2 --format table": (0, "208da7ac8671b535624253f537772a02da1a97b50f9b4e7c536e551d3d04da8b"),
    "reflexive -n 3 --format json": (0, "37d33dfe9a70d26ea16fb7e8834a3ef32eb9d10397e5aaca900ce589064eca2c"),
    "reflexive -n 3 --format csv": (0, "00a334e7cd2a9ff7b95d4625868a68fad34a361e8940fb62bf594a36a5bc060d"),
    "reflexive -n 3 --format table": (0, "aac637c4aabb8005e98fb2b73c2c06f169ef4c1a9bde61e1889c5c400f74943d"),
    "reflexive -n 4 --format json": (0, "96b77058d23166e7f79a035dec404145e46bb75911cf9c07335d9fd416b9040a"),
    "reflexive -n 4 --format csv": (0, "7e5c140b965d9c362b2c82f0949d521006b355e6c3084655fee7355bc0d36c67"),
    "reflexive -n 4 --format table": (0, "34f4715f2fb14d4bbc7deb4253793b9552c92eeea8c037807360caf59c42dca8"),
    "spectrum -w 1,,2": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "spectrum -w 1,x,3": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "spectrum -w 1_0,1": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "spectrum -w 1,-2": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "spectrum -w 2,4": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "spectrum -w 1": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "spectrum": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "eigenvalues": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "spectrum -w 1,2,3 --bogus": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "frobenius -w 0,1 --format json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "spectrum -w 2,4,6 --allow-gcd-normalize --format json": (0, "a9acdc33c31151730e3312e9c248b11feb24e695702f7d4b0ac79b5b3898097d"),
    "reflexive -n 6": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "reflexive -n 1": (0, "8705a326d681b8cd66ce1099da4a4ac2c4cc0e69e3cbf28ab83b5b1d282df5b5"),
    "verify -w 1,2,3 --suite nope": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify -w 1,1,3 --suite bernstein --suite jordan --format json": (0, "50f9c274a968a75b952048751fee0a2e8d7d193bb52897aca1c37c45dbb4890d"),
    "jordan -w 1,2,3 --format xml": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}

GOLDEN_LARGE = {
    "spectrum -w 1319,1321,1361 --format json": (0, "203f6ea37e41610118ff4e9bcb5bbb17f2fce0b5d42552a8ef32a2c9fb5efbdb"),
    "jordan -w 1319,1321,1361 --format json": (0, "bac6cbcf1781aece34a25cf7d424df9bc9fd2fefbba9c16ea87d16aafd6c8805"),
    "filtrations -w 1319,1321,1361 --format json": (0, "01820468e2f84b2d822e4f4e6574d0d241f2127fed39a315abb2573359841cb2"),
    "frobenius -w 17,19,26,34 --format json": (0, "bf1b51958f0f6c742cebafe98ba9e16c43b401c470c9735115649bcddc627205"),
    "spectrum -w 1319,1321,1361 --format csv": (0, "9c759bdb18176850512644ea5ac6711a0c674090d1d3797c006bfac72502e81f"),
    "frobenius -w 17,19,26,34 --format table": (0, "8932afffa3bc81431cadd1d2cc3145be3ce9169628457a391f278e2ba481a3e7"),
    "reflexive -n 5 --format json": (0, "73305da44e1bcf5219e1eb0dd2b2dfc204bbca801f2470a662f78dfe5fa15261"),
}


def _mismatches(golden: dict[str, tuple[int, str]]) -> list[tuple[str, int, str]]:
    mismatches = []
    for command, expected in golden.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(command.split())
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if (code, digest) != expected:
            mismatches.append((command, code, digest))
    return mismatches


def test_golden_stdout_and_exit_codes():
    assert _mismatches(GOLDEN) == []
    assert len(GOLDEN) == 130


def test_golden_json_at_session_size():
    assert _mismatches(GOLDEN_LARGE) == []
