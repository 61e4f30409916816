"""Golden bytes: the SHA-256 of every file the seed-42 fixtures write, of
their transformed staging dump, and of the cleansed staging dump of a
100-student drop at dirty-rate 0.25.

The fixtures pin their timestamp, so these files are deterministic. A
change that moves a byte of a warehouse or a staging dump fails here; if
the change is meant, update the digest and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from conftest import TS
from uwh import canonical
from uwh.cleanse import cleanse_staging
from uwh.datagen import GenConfig, generate
from uwh.ingest import extract_database
from uwh.staging import dump_staging

WAREHOUSE = {
    "account.0.col": "47824a6886d413dcae1b0e994faf1577638ea7e3d3af8fa8ad23c77776ee1561",
    "account.1.col": "207da8a3ecbb424fe021607e364c6dd128d38609fa0cfe052bd0e625766594df",
    "account.2.col": "48c1b8ee282dfd94442f058dd7f7316edaa7d826b4c1d8b308db465419ea7e72",
    "account.3.col": "e8f8e1edd680601f51136ef89cfa4d5faa9b5870b24c7192e2eb63f1f68fe98e",
    "alumni.0.col": "a45fed10a929d23f8f3e93a3f7dd1d47f823dc1a32dc9ca280d58e6eb0ecca8b",
    "alumni.1.col": "ea910a3ee3dd76714cb8d747cddd473d249d7fa14ed525a89bd3fb08b0256c4d",
    "alumni.2.col": "c09ba2db565bc02e3dfc3e3f9ecc8a1d1b53d760325a817e31c3c51be5eb41c5",
    "alumni.3.col": "fa09f9d4d4af0ba4d3bbfed65a2fd2d2e2637816172800d61f73b470ef4ea68a",
    "alumni.4.col": "9e526cd58ec96c443e850e34d2b1bcef82ce0691ae5e8d27c8c3c136ae2b7abf",
    "catalog.json": "462ccbcd31f907ad3fd777cdf07aab7d6da8c57d60a2180b03f75510345bf9f1",
    "instructor.0.col": "f8ff5e287f4c6daa02f6c83e838dff7bf31744f23739f31d94a12bd2b45e6a74",
    "instructor.1.col": "4d168024decf9092935ff1499af30a1a5d38788affd0e381e292857ee7f40032",
    "instructor.2.col": "53e46b942050dfdac0846e6b7e4328fe37ca890da409d56850af241b547d8272",
    "instructor.3.col": "fae0187810731d5e876af814e03e8a46e69be5bb81ebaf3a3bce3e12ba081fef",
    "major.0.col": "67149111d45cf106eb92ab5be7ec08179bddea7426ddde7cfe0ae68a7cffce74",
    "major.1.col": "b1abf2f0d52c6045a891e2744985e9466d842898ce9eb14858a34df871d81c77",
    "major.2.col": "da0b661408104dec2ce27a8a45d72d5ca9e0b83bdf8fbcd9251abe3474552c00",
    "receipt.0.col": "d0ee7b276cdc878b34d940b9b07779f42dd91e5c151ccbdc1e536df597a1d328",
    "receipt.1.col": "d82de3cbf7713700b10e3c199af45003c8eb79c9d3d2b54b564727f7a626e2b4",
    "receipt.2.col": "b72dc28237db01cad0f459d0d382021b2b10c96a48f73674be13b736d70824fc",
    "receipt.3.col": "e50c186cc8c45a04231a095abb053c32e47b4993a8ab26b767942443b55f3a9f",
    "receipt.4.col": "10137fa999c6f0259d7359718bff61a0ab90c1b216211100f7818f2cab07d821",
    "receipt.5.col": "4b8924273b157040078673a65ef9140fbbb6b4c09aed204cf1083f0346c1d52e",
    "registeredActivities.0.col": "884a226aa1abc62489cb7d7606d967bd3c61e0d76a6b5b0cab6234b01085dbad",
    "registeredActivities.1.col": "73fb32812ae36e63fa594c250c570d8c51b2bc32383904651f844b2cdec905a6",
    "registeredActivities.2.col": "f459dceda3559bc6bc5cdf1302bd884612dcab39521d4e6def0449ac052cfbe9",
    "registeredActivities.3.col": "5f3c16d53b0f89d3d748e1dd9301f04aa71fae7d51409ff98d8bd7ec8a4d6bcf",
    "registeredActivities.4.col": "cf2d270d5e923acc6b2e726fcad98334f1485551bf0a8d7d097a683e3119e163",
    "registeredActivities.5.col": "18edae1d1b7a088b5772c3ab909194f3846539e705622894c3c65918967ef77a",
    "student.0.col": "207da8a3ecbb424fe021607e364c6dd128d38609fa0cfe052bd0e625766594df",
    "student.1.col": "703fb7759606c5f7c782eb05ca815b80c88cd9694eb9fd52cad8a9f670e8fcf5",
    "student.2.col": "298b552a285c372bf64583915ae7966905b09870d8333e7d7923968da56e6ddd",
    "student.3.col": "2dd3e2ec66e3de35347f7e4f914367ba5727cc72d0b75839ee697c2e9fbd0047",
    "student.4.col": "d9b090ce65f36bf5c7ebfb27253acf4781acce8c114073e1ff63a578460ac163",
    "student.5.col": "5812bedccc61431cc48f932787e5b7ac352acfef4c59af16fc267718e2293fe8",
    "student.6.col": "9ed53eba3543c5e622eda57dd14894ba1b0b682890341d9e1941176e76e25e0f",
    "transcript.0.col": "cd7642cf345f01f3382b9ec09409622b0be4d5e417d44ec9bb4bf8c6f9c6a277",
    "transcript.1.col": "612e615f414e67d6399e658ecda903ff92bf6ff8697cd00bd9859bdb4c074770",
    "transcript.10.col": "229dae11abd80c8a4cf0d4e7463ab2c4884e121160771583d9927f49964e0b1b",
    "transcript.2.col": "7584848f07f05252403f503b0de7e132d313362f6b7e746b5e7c5dd5cd2ab693",
    "transcript.3.col": "f65e1b8bd2addabfb7651eb0a860e095e0307cc74db142884fa62b69a8c24778",
    "transcript.4.col": "25c41286701a0651db485eff9e7405310ce45e24818f1ca2dae1fdf317a9a640",
    "transcript.5.col": "169b44f167a58829d52440767c43a39230a8056144496fd230a5667c0e8d96c6",
    "transcript.6.col": "82cf1dd618aabe023cc5f8bfab403a9fd43f1f32bc1f04aa877edf3651164901",
    "transcript.7.col": "d3cb65c45e5891545af3f271a15b4293831e0bdb5dc899a4b2c59b94b8dea6dc",
    "transcript.8.col": "65bbce155b00556bed5301ce18ac4e52cb7853c3a44045e299fd1d3d5d1b57cc",
    "transcript.9.col": "4ac85bedee48406728859dedc6aec051a3f2ac181e456754e712d47953ac9d3f",
}

STAGING = {
    "account.csv": "6c112d4a3eb85d35a1bb62b4f83696e844d5ff19418f7d0aa4c2018b278d5dd7",
    "activities.csv": "17895c70f62b3e982fddd44dd20dfa3de4736a120b53b49a55b23976c4e81477",
    "alumni.csv": "69ed18a605e56f62133e3324d126ee39f06ec37a439e4d7dc00a82a50c97daf9",
    "assets.csv": "9e51fb942d6b091bc07f6c7f44a6c56d07efad6750f2dc6e005ab333f327a94a",
    "course.csv": "a2d8d4d292712e980964d3ee09d6aa201fd923ddb3111d32954f74b3921c8690",
    "department.csv": "2e42cb50ecec05ed62c0abeaa22097275a7395f780484bdba3cc6dab6d4b15fa",
    "instructor.csv": "6154df690fc45a954531cb792f53abb86b14482fe9fdb12116b986a5938cdcdc",
    "item.csv": "d7b356aea58a729ea09f7ae9c5d2b264f602c19e3c94640036aa397169e98704",
    "major.csv": "db26fd38cb2454e13d734f095d7a926995643db675483306e276736704b94347",
    "meta.json": "a8c3647261add4f397e637d81c3ed5fccd8ab7e16344ab4eb9670365b286517a",
    "quarantine/receipt.csv": "33e1ee54de042f35a9fa783b10bd5ec3faeb0ac6e858adfd280c086ece1f8b21",
    "quarantine/student.csv": "7e02476563d50bea4774aef196fb71ba9217aa0e75e16e94bd3d834d7ee636f0",
    "receipt.csv": "b6eef44f133e4ce44fb8864f59a339211cd433d49ec1f3d8e9d5bd83c6f2da4e",
    "registrationActivities.csv": "48e3d97bbbdb707d8fe0ed897ed3b5f057d8cc8c400afc383f6985d23459e962",
    "schema.manifest": "ef46d220f164c2cf7a0a7788f35b66b1cb429cefce558b260e420c55bddd57c3",
    "section.csv": "7509df4fa4ded3c73a879b96df025835ef9a3bb046becacfd44c5c11ecced3c2",
    "student.csv": "2610357ad52a4a6fc3ce2fe0058570f38fb040362c1f75b228ffc350c7ff3731",
    "transcript.csv": "9f4643f672acb8931105b8b4bcfadcedf15fa5e228f734fea3830c58207e1f20",
}

# the seed-42 staging after cleanse: quarantine files, reasons, report
CLEANSED = {
    "account.csv": "a8924bb965df2144106af0f3f84e1cc946cf6a8f88fb66afe7f421e4d12b20f2",
    "activities.csv": "0564691ae606a625f28fd10a7fdb406f7abc267e41a863e3f56a081814e9a825",
    "alumni.csv": "7e4cdc238eec67ac0e94cb9c5bae2dee8e71951bc09dc487a94c82628f4ecd7e",
    "assets.csv": "cdabc4a40ca74de1375e7e458291b40abd8228f9dc6c71406a9201c29a45fb0b",
    "course.csv": "c80ca09cca5b68c7570b90c322f81b815097c981188fcfe1a3f53fef868c0444",
    "department.csv": "3ab8dad8ce56c1860c97ba31264d8ac7ebcc228a41fcaf5118cedd3a54b9df3b",
    "instructor.csv": "7ef1d3662cb0c0e4e8169613ebb94fd11257c5cbde90e7c97233a9b0b4f0bdcf",
    "item.csv": "8051a26016531ee9d656a176d5e04e94f09763806673ab52c68be4a4f19d24a2",
    "major.csv": "5289cf1fbeb071c2079573af31a0ab04cb3eba2e2fde9c2f345b148d27ece4c2",
    "meta.json": "6afa8584d7a05728e43124d87d565647322a2bc28d75f079dcb2e163d0b9166a",
    "quarantine/account.csv": "489baaf9291af5d660ea0010fe47a0dffba0ccf3c5af6f6baa82012bb2086a18",
    "quarantine/activities.csv": "b700ddc3d2f15cf40f943e7f7129f94a2c1ffd510905c9060675227ab1ae12dc",
    "quarantine/alumni.csv": "f71e51b24f664b41cbf0b0c9a94efb02c843cddd6f1d8f0b8fb5a7549dfc5d1a",
    "quarantine/assets.csv": "7d0b36805a40eed33492c8d47940702ae1501c3797da4e71a2fb0f05b73f5b3b",
    "quarantine/item.csv": "1d824645827d0850e6b76c2408d71740351e6147d6a0bfc6be6a0c3bcb26bc40",
    "quarantine/receipt.csv": "c8d53c3eed689d30d735c559338b481950643da9f5f4242696f4307dfead22f6",
    "quarantine/registrationActivities.csv": "b95b9a9cfdf5755ef2b482105a6a4f143875c980c6825ccf5f4cf03bcdc28ce0",
    "quarantine/student.csv": "6d2440da5c69b3a30284976674d2cdd16c1f7005a709a0284200b1a19258d483",
    "quarantine/transcript.csv": "1c5d00cab2bfa4f9e07ed3e360eade9df7a23cb222d5dc8820afeb3ca0412790",
    "receipt.csv": "a1c45e92351521a44e9d7e34c80ec6f5fa47f4fd89ee0ea66d971df059ffc1c3",
    "registrationActivities.csv": "57b684971a16c9594164c3dbf24e11fb963d4db222849b7b3f3418f722be29c5",
    "schema.manifest": "ef46d220f164c2cf7a0a7788f35b66b1cb429cefce558b260e420c55bddd57c3",
    "section.csv": "7342c6f31ff27dc5ad8d43bf05f100a0a7bde6ace7f7aa5ac2fa96e20b99ce44",
    "student.csv": "ff4489f940ef77ad82f8d6e96a618328ec1c330cc101e53993aa4ad249b813ac",
    "transcript.csv": "20d8acf5b42b80ec57e83168d20017721666cc46b38c505de3d8524f77055644",
}

# the seed-42 staging after the canonical plan: statement entries, plan hash
TRANSFORMED = {
    "account.csv": "a8924bb965df2144106af0f3f84e1cc946cf6a8f88fb66afe7f421e4d12b20f2",
    "alumni.csv": "7e4cdc238eec67ac0e94cb9c5bae2dee8e71951bc09dc487a94c82628f4ecd7e",
    "instructor.csv": "7ef1d3662cb0c0e4e8169613ebb94fd11257c5cbde90e7c97233a9b0b4f0bdcf",
    "major.csv": "5289cf1fbeb071c2079573af31a0ab04cb3eba2e2fde9c2f345b148d27ece4c2",
    "meta.json": "2c69bb653e33e384e185c9668e92d15a8dc27fb4d9522b77b63054936eafa05f",
    "quarantine/account.csv": "489baaf9291af5d660ea0010fe47a0dffba0ccf3c5af6f6baa82012bb2086a18",
    "quarantine/activities.csv": "b700ddc3d2f15cf40f943e7f7129f94a2c1ffd510905c9060675227ab1ae12dc",
    "quarantine/alumni.csv": "f71e51b24f664b41cbf0b0c9a94efb02c843cddd6f1d8f0b8fb5a7549dfc5d1a",
    "quarantine/assets.csv": "7d0b36805a40eed33492c8d47940702ae1501c3797da4e71a2fb0f05b73f5b3b",
    "quarantine/item.csv": "1d824645827d0850e6b76c2408d71740351e6147d6a0bfc6be6a0c3bcb26bc40",
    "quarantine/receipt.csv": "c8d53c3eed689d30d735c559338b481950643da9f5f4242696f4307dfead22f6",
    "quarantine/registrationActivities.csv": "b95b9a9cfdf5755ef2b482105a6a4f143875c980c6825ccf5f4cf03bcdc28ce0",
    "quarantine/student.csv": "6d2440da5c69b3a30284976674d2cdd16c1f7005a709a0284200b1a19258d483",
    "quarantine/transcript.csv": "1c5d00cab2bfa4f9e07ed3e360eade9df7a23cb222d5dc8820afeb3ca0412790",
    "receipt.csv": "b801bfa449f6794108a94235b2d24f7d06610a8ad906129acd1bdc0386d0b81d",
    "registeredActivities.csv": "0401c6fed442235668daad2377af1854d02989ad2b4fed53746a101dc82b8074",
    "schema.manifest": "28ba07c08ea4fa4f6239af7db6373a75854d873c7d7796223bb1f30adfd6d685",
    "student.csv": "57f6995d5147bc193b506b9200d37c4f2e719bd3a055ecf5c1a5a9cf13fc8ffb",
    "transcript.csv": "14f45d1126938be5d87194b869d90bf173596946d559fd5bad39605089f88d37",
}

# a 100-student drop at dirty-rate 0.25, after cleanse
CLEANSED_DIRTY = {
    "account.csv": "97141b8e3a5c092fa8f150b431e2c2d0908e805df0117981f54ebc381f26c3f4",
    "activities.csv": "ce826ae9de32846aeded895caa1d66724adaa3304829038dced42b1dd6fe4e98",
    "alumni.csv": "ec6c642f3f675129ba93a858b407089d7ffadea7de0e911ecb7ccff3fd29f443",
    "assets.csv": "ef1ad36e3f7dfb168cf5968a38fb55b8f18c7245df9ed45e8ef444e36a01b9a2",
    "course.csv": "c80ca09cca5b68c7570b90c322f81b815097c981188fcfe1a3f53fef868c0444",
    "department.csv": "3ab8dad8ce56c1860c97ba31264d8ac7ebcc228a41fcaf5118cedd3a54b9df3b",
    "instructor.csv": "7ef1d3662cb0c0e4e8169613ebb94fd11257c5cbde90e7c97233a9b0b4f0bdcf",
    "item.csv": "099956571fc59324f459d382a5adbd41b2932e8a052e6a98b580eb8f6de89eab",
    "major.csv": "5289cf1fbeb071c2079573af31a0ab04cb3eba2e2fde9c2f345b148d27ece4c2",
    "meta.json": "9bd54b14797b063a65b9f7636e4f679ecd0f131a682ca64d313e7b1552faed30",
    "quarantine/account.csv": "787884500af3df950dba28e6fc3ba6c155f305ba1e149c6a71f91c86b7e8a509",
    "quarantine/activities.csv": "733c0b73a754a4d5a6c5b37cf3e20cb49220e3a793725dd1000decf4c33d780e",
    "quarantine/alumni.csv": "f2211e0bfc1c0710a9e0821259a3268cdc84a9fbccfa8df1304015106cd91074",
    "quarantine/item.csv": "6644daccd699019aff358697b5fa508134db413ba011bb1e73bd0533c2ee2c42",
    "quarantine/receipt.csv": "d558d514ba69cb06ee100f00226a92742e99f5bd34b3b58a1903e0aa7a1957c7",
    "quarantine/registrationActivities.csv": "fd4a0b5d76e6fae759d65329e97e0ad878ef269d30d263193996a01883335cdf",
    "quarantine/student.csv": "c89309b061728a3931ed6f5eeb5809d96c094ec43a9960b8fe7310b92e5dfc2c",
    "quarantine/transcript.csv": "f656c76d79b94aba981f3c59bc2328be7b8a01e3df5768c619ea4e87e9d69d7c",
    "receipt.csv": "cff24163796bb59418e57a89fbb84d8223b25673106e21ff6d2def1047115897",
    "registrationActivities.csv": "095ad20274d1ae0b09f4adf7cc10d589ea4c454f16895cd33f9c13110b2ddbb1",
    "schema.manifest": "ef46d220f164c2cf7a0a7788f35b66b1cb429cefce558b260e420c55bddd57c3",
    "section.csv": "7342c6f31ff27dc5ad8d43bf05f100a0a7bde6ace7f7aa5ac2fa96e20b99ce44",
    "student.csv": "f694c6e7e778f53be44a9e8828536e30d0af849075c783609830605b622d2f33",
    "transcript.csv": "72c5f63a9a4f3c5aa0b495a500f5109e978e3ff7a29585ac32557d191e78240a",
}


@pytest.fixture(scope="module")
def seed42_cleansed_dir(tmp_path_factory, seed42_cleansed):
    out = tmp_path_factory.mktemp("seed42-cleansed-dump") / "staging"
    dump_staging(seed42_cleansed, out)
    return out


@pytest.fixture(scope="module")
def seed42_transformed_dir(tmp_path_factory, seed42_transformed):
    out = tmp_path_factory.mktemp("seed42-transformed-dump") / "staging"
    dump_staging(seed42_transformed, out)
    return out


@pytest.fixture(scope="module")
def dirty_cleansed_dir(tmp_path_factory):
    src = tmp_path_factory.mktemp("dirty-src")
    generate(GenConfig(seed=42, students=100, courses_per_dept=5, semesters=3, dirty_rate=0.25), src)
    staging, _ = extract_database(src, canonical.canonical_schema(), timestamp=TS)
    cleansed, _ = cleanse_staging(staging, list(canonical.canonical_rules()), timestamp=TS)
    out = tmp_path_factory.mktemp("dirty-cleansed-dump") / "staging"
    dump_staging(cleansed, out)
    return out


def _digests(root) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize(
    "fixture, golden",
    [
        ("seed42_warehouse_dir", WAREHOUSE),
        ("seed42_staging_dir", STAGING),
        ("seed42_cleansed_dir", CLEANSED),
        ("dirty_cleansed_dir", CLEANSED_DIRTY),
        ("seed42_transformed_dir", TRANSFORMED),
    ],
)
def test_fixture_bytes_match_golden_digests(request, fixture, golden):
    assert _digests(request.getfixturevalue(fixture)) == golden
