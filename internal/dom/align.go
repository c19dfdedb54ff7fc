package dom

// Element alignment and content fingerprints: the two primitives the
// write-through-views merge (core.MergeView) compares a requester's
// view with their replacement document by. Elements and attributes are
// the protected units, so an element's direct character data is
// compared as one unit.

// contentKey summarizes an element's direct character data (text,
// CDATA, comments, PIs), restricted to mask-visible children. Element
// children are excluded: the alignment accounts for them, and including
// them here would double-report pure insertions/deletions as content
// edits.
func contentKey(n *Node, mask Bitmask) string {
	var b []byte
	for _, c := range n.Children {
		if !mask.Visible(c) {
			continue
		}
		switch c.Type {
		case TextNode:
			b = append(b, 't')
		case CDATANode:
			b = append(b, 'c')
		case CommentNode:
			b = append(b, '#')
		case ProcessingInstructionNode:
			b = append(b, '?')
			b = append(b, c.Name...)
		default:
			continue
		}
		b = append(b, c.Data...)
		b = append(b, 0)
	}
	return string(b)
}

// AlignByName aligns two element lists by name with a classic O(n·m)
// longest common subsequence; it returns, for each side, the matched
// index on the other side (-1 when unmatched). The write-through-views
// merge uses it to decide which elements an edit kept, inserted or
// deleted.
func AlignByName(a, b []*Node) (ma, mb []int) { return lcsMatch(a, b) }

// ContentKey summarizes an element's direct character data; two
// elements with equal keys have identical text/CDATA/comment/PI
// content in the same order.
func ContentKey(n *Node) string { return contentKey(n, nil) }

// ContentKeyMasked is ContentKey restricted to mask-visible children —
// the content of an element as a masked view presents it. The
// write-through-views merge uses it to detect content edits against
// what the requester was actually shown.
func ContentKeyMasked(n *Node, mask Bitmask) string { return contentKey(n, mask) }

// lcsMatch aligns two element lists by name with a classic O(n·m) LCS;
// it returns, for each side, the matched index on the other side (-1
// when unmatched).
func lcsMatch(a, b []*Node) (ma, mb []int) {
	ma = make([]int, len(a))
	mb = make([]int, len(b))
	for i := range ma {
		ma[i] = -1
	}
	for j := range mb {
		mb[j] = -1
	}
	// dp[i][j] = LCS length of a[i:], b[j:].
	dp := make([][]int, len(a)+1)
	for i := range dp {
		dp[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i].Name == b[j].Name {
				dp[i][j] = dp[i+1][j+1] + 1
			} else if dp[i+1][j] >= dp[i][j+1] {
				dp[i][j] = dp[i+1][j]
			} else {
				dp[i][j] = dp[i][j+1]
			}
		}
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Name == b[j].Name:
			ma[i], mb[j] = j, i
			i++
			j++
		case dp[i+1][j] >= dp[i][j+1]:
			i++
		default:
			j++
		}
	}
	return ma, mb
}
