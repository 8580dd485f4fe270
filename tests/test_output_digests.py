"""Every output of the commands in output_digests.py is byte-identical to the
checked-in table, which ``python tests/output_digests.py`` rewrites."""

import json

import output_digests


def test_outputs_match_the_digest_table(tmp_path):
    table = json.loads(output_digests.TABLE.read_text())
    here = output_digests.versions()
    assert here == table["versions"], (
        f"the digest table was made with {table['versions']}, this process runs {here}; "
        f"the bits depend on both, so rewrite the table with these versions on the parent commit"
    )
    got = output_digests.digests(tmp_path)
    changed = sorted(name for name in table["digests"].keys() | got.keys() if table["digests"].get(name) != got.get(name))
    assert not changed, f"{len(changed)} of {len(got)} outputs differ from the digest table: {changed}"
