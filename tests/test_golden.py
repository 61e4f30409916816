"""Golden bytes: the SHA-256 of every file the seed-42 fixtures write.

The fixtures pin their timestamp, so these files are deterministic. A
change that moves a byte of a warehouse or a staging dump fails here; if
the change is meant, update the digest and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

WAREHOUSE = {
    "account.ac_id.idx": "32729ac56222811fd21925d021f4e76eab39205a13eb8c4749fc7c68ca178ec2",
    "account.csv": "a8924bb965df2144106af0f3f84e1cc946cf6a8f88fb66afe7f421e4d12b20f2",
    "alumni.al_id.idx": "c0738ac63850558b8d3cacb01b5a7033d3eefb74a784ccc94add7cb3d519b0cb",
    "alumni.csv": "7e4cdc238eec67ac0e94cb9c5bae2dee8e71951bc09dc487a94c82628f4ecd7e",
    "catalog.json": "448db877934c0e9fce3439e64418d154326122edd1fe3ac162cd33bf19ed5b69",
    "instructor.csv": "7ef1d3662cb0c0e4e8169613ebb94fd11257c5cbde90e7c97233a9b0b4f0bdcf",
    "instructor.in_id.idx": "f497f5e583cf4604de23c6a4db96b9ee7d8cd4a36b8bbbb62457fb471f4521f2",
    "major.csv": "5289cf1fbeb071c2079573af31a0ab04cb3eba2e2fde9c2f345b148d27ece4c2",
    "major.mj_id.idx": "50170d62b481c25d316e4b5aefb8afe32d2cb442fb83666d7a783a308983f632",
    "receipt.csv": "b801bfa449f6794108a94235b2d24f7d06610a8ad906129acd1bdc0386d0b81d",
    "receipt.re_id.idx": "4ce4cec47d4bfd6edbf0c9fcddfeba15649990bbb12246da98a912396728a743",
    "registeredActivities.csv": "0401c6fed442235668daad2377af1854d02989ad2b4fed53746a101dc82b8074",
    "registeredActivities.reg_id.idx": "714dcafdb42bb85752d038877b99969923f3fd1819e51d02ec227912f047b8db",
    "student.csv": "57f6995d5147bc193b506b9200d37c4f2e719bd3a055ecf5c1a5a9cf13fc8ffb",
    "student.st_id.idx": "e672c6b435c2c26140b8567ec965c5ce899c5788bf326776daee1b50816e846d",
    "transcript.csv": "14f45d1126938be5d87194b869d90bf173596946d559fd5bad39605089f88d37",
    "transcript.se_in_id.idx": "638c5d6dbeb4fa3311ee0e24215d04573ae18f9a64133a662a6d45871d1a2d8c",
    "transcript.tr_st_id.idx": "fb1b918b7c82c764c9d4529a4e95ad50ed9c0dfb72e362af1f74ad3f4f5c9d6e",
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


def _digests(root) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("fixture, golden", [("seed42_warehouse_dir", WAREHOUSE), ("seed42_staging_dir", STAGING)])
def test_fixture_bytes_match_golden_digests(request, fixture, golden):
    assert _digests(request.getfixturevalue(fixture)) == golden
