"""GEXF 1.2draft serialization of one retweet network for Gephi.

Output is deterministic: nodes sorted by account id, edges by endpoint
pair, attribute ids assigned in a fixed order, no wall-clock metadata.
Cluster and side attributes appear only when a partition or labeling is
supplied; each partisan set becomes a boolean attribute defaulting to
false so Gephi filters can isolate a party directly. The text is written
directly in one pass and equals ElementTree's indented UTF-8 form
(``indent``, then ``tostring`` with the declaration): two-space
indentation, ``<x />`` for an element without children, values escaped
as ElementTree escapes them, and a trailing newline.
"""

from __future__ import annotations

from typing import Iterable

from .community import CommunityPartition
from .graph import AccountRegistry, RetweetNetwork
from .labeling import ClusterLabeling, PartisanAssignment

# Everything before the node attributes; the description is filled in.
_HEAD = """<?xml version='1.0' encoding='UTF-8'?>
<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">
  <meta>
    <creator>hashjack</creator>
    <description>{}</description>
  </meta>
  <graph mode="static" defaultedgetype="directed">"""

# Replaced in this order; element text takes only the first three.
_ATTRIB = (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"),
           ("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#09;"))


def _escape(text: str, table=_ATTRIB) -> str:
    for char, ref in table:
        if char in text:
            text = text.replace(char, ref)
    if not text.isascii():  # a lone surrogate becomes a character reference
        text = text.encode("utf-8", "xmlcharrefreplace").decode("utf-8")
    return text


def _element(pad: str, tag: str, lines: list[str]) -> list[str]:
    """The element around its child lines, or its empty form."""
    if not lines:
        return [f"{pad}<{tag} />"]
    return [f"{pad}<{tag}>", *lines, f"{pad}</{tag.split(' ', 1)[0]}>"]


def gexf_document(
    net: RetweetNetwork,
    registry: AccountRegistry,
    partition: CommunityPartition | None = None,
    labeling: ClusterLabeling | None = None,
    partisan_sets: Iterable[PartisanAssignment] = (),
) -> str:
    """Render the network as a GEXF 1.2 string, directed weighted edges."""
    psets = sorted(partisan_sets, key=lambda p: p.party)
    titles = [("cluster", "integer")] if partition is not None else []
    titles += [("side", "string")] if labeling is not None else []
    titles += [(f"partisan_#{p.party}", "boolean") for p in psets]
    ids: dict[str, str] = {}
    declared = []
    for title, kind in titles:
        ids[title] = str(len(ids))
        default = ["        <default>false</default>"] if kind == "boolean" else []
        tag = f'attribute id="{ids[title]}" title="{_escape(title)}" type="{kind}"'
        declared += _element("      ", tag, default)
    attvalue = '          <attvalue for="{}" value="{}" />'.format
    accounts = registry.ids
    ordered = sorted(net.nodes, key=accounts.__getitem__)
    names = {node: _escape(accounts[node]) for node in ordered}
    assignment = {} if partition is None else partition.assignment
    sides = {} if labeling is None else {c: _escape(s) for c, s in labeling.labels.items()}
    members = [(attvalue(ids[f"partisan_#{p.party}"], "true"), p.accounts) for p in psets]
    nodes = []
    for node in ordered:
        values = []
        if node in assignment:
            cid = assignment[node]
            values.append(attvalue(ids["cluster"], cid))
            if labeling is not None:
                values.append(attvalue(ids["side"], sides.get(cid, "other")))
        values += [line for line, party in members if node in party]
        head = f'      <node id="{names[node]}" label="{names[node]}"'
        nodes += ([f"{head}>", *_element("        ", "attvalues", values), "      </node>"]
                  if values else [f"{head} />"])

    ranked = sorted(net.edges, key=lambda edge: (accounts[edge[0]], accounts[edge[1]]))
    edges = [
        f'      <edge id="{eid}" source="{names[src]}" target="{names[dst]}" weight="{w}" />'
        for eid, (src, dst, w) in enumerate(ranked)
    ]
    description = _escape(f"retweet network #{net.hashtag}", _ATTRIB[:3])
    attributes = _element("    ", 'attributes class="node"', declared) if declared else []
    return "\n".join([
        _HEAD.format(description), *attributes, *_element("    ", "nodes", nodes),
        *_element("    ", "edges", edges), "  </graph>", "</gexf>\n",
    ])
