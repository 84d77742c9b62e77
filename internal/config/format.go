package config

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"
)

// Format renders a Config back into configuration-language text that
// Parse accepts, reconstructing the feed-group hierarchy from feed
// paths. The analyzer uses it to emit ready-to-install snippets for
// suggested definitions; operators use it to normalize hand-edited
// files. Formatting then parsing yields an equivalent configuration.
func Format(cfg *Config) string {
	var b strings.Builder
	configSchema.format(&b, reflect.ValueOf(cfg).Elem(), "", true)
	return b.String()
}

// formatHook renders the hook field kw of owner: the twin of
// parser.hook.
func formatHook(b *strings.Builder, kw string, owner any, ind string) {
	switch o := owner.(type) {
	case *Config:
		if kw == "feed" { // the feedgroup hierarchy is written with the feeds
			writeFeeds(b, o)
		}
	case *Feed:
		if kw == "plan" {
			if o.Plan != nil {
				writePlan(b, o.Plan, ind)
			}
		} else if o.ExpectPeriod != 0 || o.ExpectSources != 0 {
			fmt.Fprintf(b, "%sexpect %s %d\n", ind, formatDuration(o.ExpectPeriod), o.ExpectSources)
		}
	case *Subscriber:
		writeTrigger(b, o.Trigger, ind)
	}
}

// writeFeeds rebuilds the feedgroup hierarchy (a trie of path segments)
// from the feed paths, then from the declared groups — sorted, the map
// has no order — so that a group with no feed under it, which a
// subscriber may still name, is written too.
func writeFeeds(b *strings.Builder, cfg *Config) {
	root := &groupNode{children: map[string]*groupNode{}}
	group := func(parts []string) *groupNode {
		n := root
		for _, part := range parts {
			child := n.children[part]
			if child == nil {
				child = &groupNode{name: part, children: map[string]*groupNode{}}
				n.children[part] = child
				n.order = append(n.order, part)
			}
			n = child
		}
		return n
	}
	for _, f := range cfg.Feeds {
		parts := strings.Split(f.Path, "/")
		n := group(parts[:len(parts)-1])
		n.feeds = append(n.feeds, f)
	}
	groups := make([]string, 0, len(cfg.Groups))
	for g := range cfg.Groups {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		group(strings.Split(g, "/"))
	}
	writeGroup(b, root, 0)
}

type groupNode struct {
	name     string
	children map[string]*groupNode
	order    []string
	feeds    []*Feed
}

func writeGroup(b *strings.Builder, n *groupNode, depth int) {
	ind := strings.Repeat("    ", depth)
	for _, f := range n.feeds {
		fmt.Fprintf(b, "%sfeed %s {\n", ind, f.Name)
		feedSchema.format(b, reflect.ValueOf(f).Elem(), ind+"    ", false)
		fmt.Fprintf(b, "%s}\n", ind)
	}
	for _, name := range n.order {
		child := n.children[name]
		fmt.Fprintf(b, "%sfeedgroup %s {\n", ind, name)
		writeGroup(b, child, depth+1)
		fmt.Fprintf(b, "%s}\n", ind)
	}
	if depth == 0 && (len(n.feeds) > 0 || len(n.order) > 0) {
		b.WriteString("\n")
	}
}

// writeTrigger renders a subscriber's trigger statement, if it has one.
func writeTrigger(b *strings.Builder, t TriggerSpec, ind string) {
	switch t.Mode {
	case TriggerPerFile:
		fmt.Fprintf(b, "%strigger perfile%s exec %s\n", ind, remoteWord(t), quote(t.Exec))
	case TriggerBatch:
		fmt.Fprintf(b, "%strigger batch", ind)
		if t.Count > 0 {
			fmt.Fprintf(b, " count %d", t.Count)
		}
		if t.Timeout > 0 {
			fmt.Fprintf(b, " timeout %s", formatDuration(t.Timeout))
		}
		fmt.Fprintf(b, "%s exec %s\n", remoteWord(t), quote(t.Exec))
	}
}

func remoteWord(t TriggerSpec) string {
	if t.Remote {
		return " remote"
	}
	return ""
}

// formatDuration renders durations the lexer accepts (no spaces, and
// ASCII "us" for microseconds — the lexer cannot tokenize 'µ').
func formatDuration(d time.Duration) string {
	return strings.ReplaceAll(d.String(), "µ", "u")
}

// quote renders a string literal with the language's escapes.
func quote(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return `"` + s + `"`
}
