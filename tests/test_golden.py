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
    "account.csv": "a8924bb965df2144106af0f3f84e1cc946cf6a8f88fb66afe7f421e4d12b20f2",
    "alumni.csv": "7e4cdc238eec67ac0e94cb9c5bae2dee8e71951bc09dc487a94c82628f4ecd7e",
    "catalog.json": "2f4a2b488ca49d918e32d27363b485df3826064e6cbc317a7e640ba0f2ec93fe",
    "instructor.csv": "7ef1d3662cb0c0e4e8169613ebb94fd11257c5cbde90e7c97233a9b0b4f0bdcf",
    "major.csv": "5289cf1fbeb071c2079573af31a0ab04cb3eba2e2fde9c2f345b148d27ece4c2",
    "receipt.csv": "b801bfa449f6794108a94235b2d24f7d06610a8ad906129acd1bdc0386d0b81d",
    "registeredActivities.csv": "0401c6fed442235668daad2377af1854d02989ad2b4fed53746a101dc82b8074",
    "student.csv": "57f6995d5147bc193b506b9200d37c4f2e719bd3a055ecf5c1a5a9cf13fc8ffb",
    "transcript.csv": "14f45d1126938be5d87194b869d90bf173596946d559fd5bad39605089f88d37",
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
    "lineage.log": "6f79bd64085955ab66a683e23ed395c483a87165b2d762ebbbf18662297b3d60",
    "major.csv": "db26fd38cb2454e13d734f095d7a926995643db675483306e276736704b94347",
    "meta.json": "aac1062ffe4484d662b73f24c5140f0639e4c52012c58c08dc4a5c3ab6855209",
    "quarantine/receipt.csv": "33e1ee54de042f35a9fa783b10bd5ec3faeb0ac6e858adfd280c086ece1f8b21",
    "quarantine/student.csv": "7e02476563d50bea4774aef196fb71ba9217aa0e75e16e94bd3d834d7ee636f0",
    "receipt.csv": "b6eef44f133e4ce44fb8864f59a339211cd433d49ec1f3d8e9d5bd83c6f2da4e",
    "registrationActivities.csv": "48e3d97bbbdb707d8fe0ed897ed3b5f057d8cc8c400afc383f6985d23459e962",
    "schema.manifest": "ef46d220f164c2cf7a0a7788f35b66b1cb429cefce558b260e420c55bddd57c3",
    "section.csv": "7509df4fa4ded3c73a879b96df025835ef9a3bb046becacfd44c5c11ecced3c2",
    "student.csv": "2610357ad52a4a6fc3ce2fe0058570f38fb040362c1f75b228ffc350c7ff3731",
    "transcript.csv": "9f4643f672acb8931105b8b4bcfadcedf15fa5e228f734fea3830c58207e1f20",
}

# the seed-42 staging after cleanse: quarantine files, reasons, report, lineage
CLEANSED = {
    "account.csv": "a8924bb965df2144106af0f3f84e1cc946cf6a8f88fb66afe7f421e4d12b20f2",
    "activities.csv": "0564691ae606a625f28fd10a7fdb406f7abc267e41a863e3f56a081814e9a825",
    "alumni.csv": "7e4cdc238eec67ac0e94cb9c5bae2dee8e71951bc09dc487a94c82628f4ecd7e",
    "assets.csv": "cdabc4a40ca74de1375e7e458291b40abd8228f9dc6c71406a9201c29a45fb0b",
    "course.csv": "c80ca09cca5b68c7570b90c322f81b815097c981188fcfe1a3f53fef868c0444",
    "department.csv": "3ab8dad8ce56c1860c97ba31264d8ac7ebcc228a41fcaf5118cedd3a54b9df3b",
    "instructor.csv": "7ef1d3662cb0c0e4e8169613ebb94fd11257c5cbde90e7c97233a9b0b4f0bdcf",
    "item.csv": "8051a26016531ee9d656a176d5e04e94f09763806673ab52c68be4a4f19d24a2",
    "lineage.log": "77f6233f358887a060a610902dc46c765ce435d656e2c28e4340bd94b12d6c4b",
    "major.csv": "5289cf1fbeb071c2079573af31a0ab04cb3eba2e2fde9c2f345b148d27ece4c2",
    "meta.json": "4b86e6b6607b8adc749531cfbc20a3aadb465d4c2ae639e13d67775cc91223df",
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

# the seed-42 staging after the canonical plan: lineage stamping, plan hash
TRANSFORMED = {
    "account.csv": "a8924bb965df2144106af0f3f84e1cc946cf6a8f88fb66afe7f421e4d12b20f2",
    "alumni.csv": "7e4cdc238eec67ac0e94cb9c5bae2dee8e71951bc09dc487a94c82628f4ecd7e",
    "instructor.csv": "7ef1d3662cb0c0e4e8169613ebb94fd11257c5cbde90e7c97233a9b0b4f0bdcf",
    "lineage.log": "8b9495c2600d945b868c4b9b860c799197f1da294a82d161ea30c9fe44a6603f",
    "major.csv": "5289cf1fbeb071c2079573af31a0ab04cb3eba2e2fde9c2f345b148d27ece4c2",
    "meta.json": "49ddfc2ca5fb2633c86e7cbecb06dc2d18fcf987f75ffb576653ec9df5aeee1d",
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
    "lineage.log": "52d931f78b18fca72ca8df2bb202c880f003c8788a15c7b68449457a71e31151",
    "major.csv": "5289cf1fbeb071c2079573af31a0ab04cb3eba2e2fde9c2f345b148d27ece4c2",
    "meta.json": "a9110df8acb5708d3f59b4efe500f82361638ac39f08532ae118384078e401a7",
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
