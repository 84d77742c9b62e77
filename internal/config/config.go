package config

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"bistro/internal/backoff"
	"bistro/internal/pattern"
)

// Compression selects the file normalization transform for a feed.
type Compression int

// Compression modes.
const (
	CompressNone    Compression = iota // deliver bytes as received
	CompressGzip                       // gzip before staging
	CompressGunzip                     // gunzip before staging
	CompressBunzip2                    // bunzip2 before staging (decompress only; stdlib bzip2 is read-only)
)

func (c Compression) String() string {
	switch c {
	case CompressNone:
		return "none"
	case CompressGzip:
		return "gzip"
	case CompressGunzip:
		return "gunzip"
	case CompressBunzip2:
		return "bunzip2"
	default:
		return "unknown"
	}
}

// Method is a subscriber's delivery method.
type Method int

// Delivery methods.
const (
	// MethodPush transfers file content to the subscriber.
	MethodPush Method = iota
	// MethodNotify implements the hybrid push-pull approach: the
	// server pushes a notification and the subscriber retrieves the
	// file at a time of its choosing.
	MethodNotify
)

func (m Method) String() string {
	if m == MethodNotify {
		return "notify"
	}
	return "push"
}

// TriggerMode selects per-file or per-batch notification.
type TriggerMode int

// Trigger modes.
const (
	TriggerNone    TriggerMode = iota
	TriggerPerFile             // invoke for every delivered file
	TriggerBatch               // invoke at end-of-batch boundaries
)

// TriggerSpec configures subscriber notification (§2.3, §4.1).
type TriggerSpec struct {
	Mode TriggerMode
	// Count closes a batch after this many files (0 = unbounded).
	Count int
	// Timeout closes a batch this long after its first file
	// (0 = unbounded). Count and Timeout together form the paper's
	// recommended hybrid batch definition.
	Timeout time.Duration
	// Exec is the command template invoked on trigger; %f expands to
	// the delivered path(s).
	Exec string
	// Remote, when true, runs Exec on the subscriber host (via the
	// subscriber daemon); otherwise Bistro runs it locally.
	Remote bool
}

// Feed is one leaf data feed definition.
type Feed struct {
	// Name is the feed's leaf name.
	Name string
	// Path is the full hierarchy path, e.g. "SNMP/ROUTER/CPU".
	Path string
	// Patterns match incoming filenames into this feed.
	Patterns []*pattern.Pattern `cfg:"pattern"`
	// Normalize, when set, renders matched files into this layout in
	// the staging area.
	Normalize *pattern.Pattern `cfg:"normalize"`
	// Compress selects content normalization.
	Compress Compression `cfg:"compress,enum=none|gzip|gunzip|bunzip2"`
	// ExpectPeriod is the feed's expected generation interval, used by
	// monitoring to detect stalls and incomplete intervals (0 = none).
	ExpectPeriod time.Duration `cfg:"expect,hook"`
	// ExpectSources is the expected file count per interval.
	ExpectSources int
	// Priority raises this feed's delivery urgency under prioritized
	// scheduling policies (0 = default). The paper's delay-sensitive
	// feeds (link faults, alarms) want this.
	Priority int `cfg:"priority"`
	// Plan, when set, replaces the fixed classify→normalize path with
	// a declared operator chain (see PlanSpec). Nil keeps the implicit
	// default plan, byte for byte.
	Plan *PlanSpec `cfg:"plan,hook"`
}

// Subscriber is one registered feed consumer.
type Subscriber struct {
	Name string `cfg:",name"`
	// Host is the subscriber daemon address (host:port); empty for
	// local-directory delivery.
	Host string `cfg:"host"`
	// Dest is the destination directory (remote or local).
	Dest string `cfg:"dest"`
	// Subscriptions holds the feed or group paths as written.
	Subscriptions []string `cfg:"subscribe,path,sorted,need=subscribes to nothing"`
	// Feeds is the resolved flat list of leaf feed paths.
	Feeds []string
	// Method selects push or hybrid notify delivery.
	Method Method `cfg:"method,enum=push|notify"`
	// Trigger configures notifications.
	Trigger TriggerSpec `cfg:"trigger,hook"`
	// Retry is the offline-subscriber retry probe interval.
	Retry time.Duration `cfg:"retry,default=30s"`
	// Class is the scheduling partition hint: "" (auto), "interactive",
	// or "bulk".
	Class string `cfg:"class,enum=interactive|bulk"`
	// Backoff, when non-nil, overrides the server-wide retry and
	// circuit-breaker policy for this subscriber.
	Backoff *BackoffSpec `cfg:"backoff"`
}

// BackoffSpec is a backoff { ... } block: retry and circuit-breaker
// tuning, either server-wide or per subscriber. Zero fields mean "not
// written" and leave the level below (server policy, then the built-in
// defaults) in force; Jitter uses an explicit set-flag because off is
// a meaningful override of the jitter-on default.
type BackoffSpec struct {
	// Base is the first retry delay.
	Base time.Duration `cfg:"base"`
	// Max caps the grown delay.
	Max time.Duration `cfg:"max"`
	// Multiplier grows the delay per consecutive failure.
	Multiplier float64 `cfg:"multiplier,min=1"`
	// NoJitter disables full jitter (meaningful when JitterSet).
	NoJitter bool `cfg:"jitter,invert,set=JitterSet"`
	// JitterSet records that the block spelled out jitter on|off.
	JitterSet bool
	// Threshold is the consecutive-failure count that opens the circuit
	// (and flags the subscriber offline).
	Threshold int `cfg:"threshold,min=1"`
	// Deadline bounds one transfer attempt.
	Deadline time.Duration `cfg:"deadline"`
	// Retries bounds bounded retry loops (dial, upload).
	Retries int `cfg:"retries,min=1"`
}

// Apply layers the spec's written fields over a base policy.
func (b *BackoffSpec) Apply(p backoff.Policy) backoff.Policy {
	if b == nil {
		return p
	}
	if b.Base > 0 {
		p.Base = b.Base
	}
	if b.Max > 0 {
		p.Max = b.Max
	}
	if b.Multiplier > 0 {
		p.Multiplier = b.Multiplier
	}
	if b.JitterSet {
		p.NoJitter = b.NoJitter
	}
	if b.Threshold > 0 {
		p.Threshold = b.Threshold
	}
	if b.Deadline > 0 {
		p.TransferDeadline = b.Deadline
	}
	if b.Retries > 0 {
		p.MaxRetries = b.Retries
	}
	return p
}

// Policy converts the spec into a backoff policy over the built-in
// defaults.
func (b *BackoffSpec) Policy() backoff.Policy {
	return b.Apply(backoff.Policy{})
}

// PartitionSpec is one scheduler partition from the configuration.
type PartitionSpec struct {
	// Name labels the partition; "interactive" receives subscribers
	// with class interactive.
	Name string `cfg:",name"`
	// Workers is the fixed worker allocation (required, > 0).
	Workers int `cfg:"workers,need=needs workers"`
	// Backfill reserves this many of the workers for backfill.
	Backfill int `cfg:"backfill"`
	// Policy is "fifo", "edf", "prio-edf", or "max-benefit"
	// (default edf).
	Policy string `cfg:"policy,enum=fifo|edf|prio-edf|max-benefit,default=edf"`
	// MaxService is the responsiveness band for dynamic migration
	// (0 = unbounded).
	MaxService time.Duration `cfg:"maxservice"`
}

func (s *PartitionSpec) check() error {
	if s.Backfill >= s.Workers {
		return fmt.Errorf("partition %s: backfill must leave real-time workers", s.Name)
	}
	return nil
}

// SchedulerSpec configures the delivery scheduler from the
// configuration language.
type SchedulerSpec struct {
	// Migrate enables observation-driven partition migration.
	Migrate bool `cfg:"migrate"`
	// Partitions in decreasing responsiveness order.
	Partitions []PartitionSpec `cfg:"partition,need=needs at least one partition"`
}

// AdminSpec is an admin { ... } block: the observability HTTP endpoint
// serving /metrics (Prometheus text), /healthz, and /statusz (JSON).
type AdminSpec struct {
	// Listen is the admin HTTP address ("127.0.0.1:0" for ephemeral).
	Listen string `cfg:"listen,need=needs listen"`
}

// PrincipalSpec is one principal { ... } entry in an http block: a
// named credential with a per-principal feed ACL. Subscriptions holds
// the feed or group paths as written; Feeds is the resolved flat leaf
// set the ACL is enforced against.
type PrincipalSpec struct {
	// Name identifies the principal (basic-auth username, log label).
	Name string `cfg:",name"`
	// Token is the shared secret: the bearer token, or the basic-auth
	// password.
	Token string `cfg:"token,need=needs a token"`
	// Subscriptions holds the feed or group paths as written.
	Subscriptions []string `cfg:"feed,path,sorted,need=grants no feeds"`
	// Feeds is the resolved flat list of leaf feed paths the principal
	// may read and write.
	Feeds []string
}

// HTTPSpec is an http { ... } block: the pull data plane exposing each
// feed as an authenticated append-only HTTP log beside the custom TCP
// protocol.
type HTTPSpec struct {
	// Listen is the HTTP data-plane address ("127.0.0.1:0" for
	// ephemeral).
	Listen string `cfg:"listen,need=needs listen"`
	// MaxBody caps POST ingest bodies in bytes (0 = the server
	// default).
	MaxBody int64 `cfg:"max_body,min=1"`
	// Principals in definition order. Empty means the plane is open
	// (documented for lab use; production configs declare principals).
	Principals []*PrincipalSpec `cfg:"principal,noun=http principal"`
}

func (s *HTTPSpec) check() error {
	names := make(map[string]bool, len(s.Principals))
	tokens := make(map[string]string, len(s.Principals))
	for _, pr := range s.Principals {
		if names[pr.Name] {
			return fmt.Errorf("duplicate http principal %q", pr.Name)
		}
		names[pr.Name] = true
		if other, dup := tokens[pr.Token]; dup {
			// Two principals sharing a token would make bearer
			// authentication ambiguous (the token alone names the
			// principal).
			return fmt.Errorf("http principals %q and %q share a token", other, pr.Name)
		}
		tokens[pr.Token] = pr.Name
	}
	return nil
}

// GroupCommitSpec is a group_commit { ... } block inside ingest:
// tuning for the receipt WAL's batched-fsync flush window.
type GroupCommitSpec struct {
	// MaxBatch flushes once this many receipt transactions are queued.
	MaxBatch int `cfg:"max_batch,min=1"`
	// MaxDelay is how long a flush leader waits for companion commits.
	MaxDelay time.Duration `cfg:"max_delay,pos"`
}

func (s *GroupCommitSpec) check() error {
	if s.MaxBatch == 0 && s.MaxDelay == 0 {
		return fmt.Errorf("group_commit block needs max_batch and/or max_delay")
	}
	return nil
}

// IngestSpec is an ingest { ... } block: the parallel landing→staging
// pipeline. Workers sets the sharded classification/commit stage width
// (files are hash-partitioned by source so per-source order is
// preserved); Queue bounds the hand-off queue into delivery, applying
// backpressure to sources when delivery falls behind.
type IngestSpec struct {
	// Workers is the shard count (>= 1; 1 reproduces the serial path).
	// Format writes it even at its default.
	Workers int `cfg:"workers,min=1,default=1,explicit"`
	// Queue is the bounded delivery hand-off depth (0 = default).
	Queue int `cfg:"queue,min=1"`
	// GroupCommit, when non-nil, enables the WAL flush window.
	GroupCommit *GroupCommitSpec `cfg:"group_commit"`
}

// ReplaySpec is a replay { ... } block: historical catch-up from the
// archive for subscribers joining with FROM older than the staging
// window. Its presence makes the server append a dedicated replay
// partition to the scheduler layout.
type ReplaySpec struct {
	// Rate caps replay streaming in files/second (0 = unlimited).
	Rate int `cfg:"rate"`
	// Workers sizes the replay partition (0 = default 1); written as
	// partition { workers N }.
	Workers int `cfg:"partition.workers,min=1"`
	// NoManifest disables the archive manifest ("manifest off").
	// Replay sessions need the manifest, so they are refused when it
	// is off; expiry then skips manifest writes entirely.
	NoManifest bool `cfg:"manifest,invert"`
}

// ClusterNodeSpec is one node { ... } entry in a cluster block.
type ClusterNodeSpec struct {
	// Name is the unique node name.
	Name string `cfg:",name,quoted"`
	// Addr is the node's source/subscriber protocol address.
	Addr string `cfg:"addr,need=needs addr"`
	// Standby, when non-empty, is the replication listen address of
	// this node's warm standby.
	Standby string `cfg:"standby"`
}

func (s *ClusterNodeSpec) check() error {
	if s.Name == "" {
		return fmt.Errorf("cluster node needs a non-empty name")
	}
	return nil
}

// FailoverSpec is the failover { ... } sub-block of a cluster block:
// lease-based failure detection and automatic standby promotion.
type FailoverSpec struct {
	// Lease is how long a standby tolerates owner silence before
	// declaring it dead (0 = default 10s).
	Lease time.Duration `cfg:"lease,pos"`
	// Heartbeat is the owner's idle lease-renewal cadence on the
	// replication stream (0 = lease/5). Must be shorter than the lease.
	Heartbeat time.Duration `cfg:"heartbeat,pos"`
	// Auto enables unattended standby promotion on lease expiry
	// ("auto on"); off, expiry is observed and alarmed but a human
	// promotes.
	Auto bool `cfg:"auto"`
}

func (s *FailoverSpec) check() error {
	if s.Lease > 0 && s.Heartbeat > 0 && s.Heartbeat >= s.Lease {
		return fmt.Errorf("failover heartbeat (%s) must be shorter than the lease (%s)", s.Heartbeat, s.Lease)
	}
	return nil
}

// ClusterSpec is a cluster { ... } block: the static feed-sharding
// topology. Every node in the cluster loads the same block (differing
// only in which node it runs as, usually set per host with the
// daemon's -node flag), so all nodes compute the same feed→owner map.
type ClusterSpec struct {
	// Self names the node this process runs as (may be overridden at
	// startup).
	Self string `cfg:"self"`
	// VNodes is the consistent-hash ring points per node (0 = default).
	VNodes int `cfg:"vnodes,min=1"`
	// Failover configures lease-based failure detection (nil = manual
	// promotion only, with default lease/heartbeat timings for status).
	Failover *FailoverSpec `cfg:"failover"`
	// Nodes is every daemon in the cluster, in definition order.
	Nodes []ClusterNodeSpec `cfg:"node,noun=cluster node,need=needs at least one node"`
}

func (s *ClusterSpec) check() error {
	names := make(map[string]bool, len(s.Nodes))
	for _, n := range s.Nodes {
		if names[n.Name] {
			return fmt.Errorf("duplicate cluster node %q", n.Name)
		}
		names[n.Name] = true
	}
	if s.Self != "" && !names[s.Self] {
		return fmt.Errorf("cluster self %q is not a listed node", s.Self)
	}
	return nil
}

// ChannelGroupSpec is one group { ... } entry in a channels block: a
// named shared delivery channel fanning one leaf feed out to its
// member subscribers through a single read per file, with receipts
// kept per group rather than per member.
type ChannelGroupSpec struct {
	// Name is the channel (and receipt-store subscription-group) name.
	Name string `cfg:",name"`
	// Feed is the leaf feed the channel fans out.
	Feed string `cfg:"feed,path,need=needs a feed"`
	// Members are the configured member subscribers, in definition
	// order. Each must be a declared subscriber subscribed to Feed.
	Members []string `cfg:"member,ident"`
}

// ChannelsSpec is a channels { ... } block: the shared fan-out
// channels the delivery engine brokers.
type ChannelsSpec struct {
	// Groups in definition order.
	Groups []ChannelGroupSpec `cfg:"group,noun=channel group,need=needs at least one group"`
}

// Config is a fully parsed and validated Bistro server configuration.
// Its fields are declared in the order Format writes them.
type Config struct {
	// Window is the retention window for staged files (0 = infinite).
	Window time.Duration `cfg:"window"`
	// LandingDir, StagingDir, ArchiveDir locate the server work areas.
	LandingDir string `cfg:"landing,default=landing"`
	StagingDir string `cfg:"staging,default=staging"`
	ArchiveDir string `cfg:"archive"`
	// QuarantineDir is where startup reconciliation moves staged files
	// that diverge from their receipts (missing, corrupt, or orphaned).
	// Empty means "quarantine" under the server root.
	QuarantineDir string `cfg:"quarantine"`
	// Scheduler, when non-nil, overrides the server's default
	// partition layout.
	Scheduler *SchedulerSpec `cfg:"scheduler"`
	// Backoff, when non-nil, sets the server-wide retry and
	// circuit-breaker policy.
	Backoff *BackoffSpec `cfg:"backoff"`
	// Admin, when non-nil, enables the observability HTTP endpoint.
	Admin *AdminSpec `cfg:"admin"`
	// HTTP, when non-nil, enables the pull data plane (feeds as
	// authenticated HTTP logs).
	HTTP *HTTPSpec `cfg:"http"`
	// Ingest, when non-nil, configures the parallel ingest pipeline
	// (shard workers, hand-off queue, WAL group-commit window).
	Ingest *IngestSpec `cfg:"ingest"`
	// Cluster, when non-nil, shards feed ownership across the listed
	// nodes; absent, the server is the single-node degenerate case.
	Cluster *ClusterSpec `cfg:"cluster"`
	// Replay, when non-nil, enables historical replay from the archive.
	Replay *ReplaySpec `cfg:"replay"`
	// Channels, when non-nil, declares shared per-feed delivery
	// channels (one staged read fanned out to every member). A config
	// may hold several channels blocks; their groups merge.
	Channels *ChannelsSpec `cfg:"channels,merge"`
	// Feeds are all leaf feeds, in definition order.
	Feeds []*Feed `cfg:"feed,hook"`
	// Groups maps each group path to its descendant leaf feed paths.
	Groups map[string][]string `cfg:"feedgroup,hook"`
	// Subscribers in definition order.
	Subscribers []*Subscriber `cfg:"subscriber"`
}

// FeedByPath returns the feed with the given full path.
func (c *Config) FeedByPath(path string) (*Feed, bool) {
	for _, f := range c.Feeds {
		if f.Path == path {
			return f, true
		}
	}
	return nil, false
}

// SubscribersOf returns the names of subscribers interested in the
// given leaf feed path.
func (c *Config) SubscribersOf(feedPath string) []string {
	var out []string
	for _, s := range c.Subscribers {
		for _, f := range s.Feeds {
			if f == feedPath {
				out = append(out, s.Name)
				break
			}
		}
	}
	return out
}

// parser holds the token stream. The regular `{ keyword value … }`
// statements are parsed by the schema walker (schema.go); the methods
// here are the token plumbing and the positional grammars the schema
// reaches through hook fields: feed/feedgroup nesting, `expect`,
// `trigger`, and the plan operators (plan.go).
type parser struct {
	lex      *lexer
	tok      token
	prevLine int // line of the most recently consumed token
}

// Parse parses and validates a configuration document.
func Parse(src string) (*Config, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	cfg := &Config{Groups: make(map[string][]string)}
	if err := p.statements(configSchema, reflect.ValueOf(cfg).Elem(), site{line: 1}, tokEOF); err != nil {
		return nil, err
	}
	if err := resolve(cfg); err != nil {
		return nil, err
	}
	return cfg, nil
}

func (p *parser) advance() error {
	p.prevLine = p.tok.line
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func errAt(line int, format string, args ...any) error {
	return fmt.Errorf("config: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *parser) errf(format string, args ...any) error {
	return errAt(p.tok.line, format, args...)
}

// errPrevf reports an error about the token that was just consumed
// (e.g. an unknown keyword value), so line numbers point at it rather
// than at the following token.
func (p *parser) errPrevf(format string, args ...any) error {
	return errAt(p.prevLine, format, args...)
}

// expect consumes a token of the given kind and returns its text.
func (p *parser) expect(k tokKind) (string, error) {
	if p.tok.kind != k {
		return "", p.errf("expected %s, got %s %q", k, p.tok.kind, p.tok.text)
	}
	text := p.tok.text
	if err := p.advance(); err != nil {
		return "", err
	}
	return text, nil
}

// duration consumes a number token and parses it as a duration;
// a bare integer means seconds.
func (p *parser) duration() (time.Duration, error) {
	text, err := p.expect(tokNumber)
	if err != nil {
		return 0, err
	}
	if n, err := strconv.Atoi(text); err == nil {
		return time.Duration(n) * time.Second, nil
	}
	d, err := time.ParseDuration(text)
	if err != nil {
		return 0, p.errPrevf("bad duration %q: %v", text, err)
	}
	return d, nil
}

// integer consumes a number token as a plain int.
func (p *parser) integer() (int, error) {
	text, err := p.expect(tokNumber)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(text)
	if err != nil {
		return 0, p.errPrevf("bad integer %q: %v", text, err)
	}
	return n, nil
}

// path consumes IDENT (/ IDENT)* and returns the joined path.
func (p *parser) path() (string, error) {
	part, err := p.expect(tokIdent)
	if err != nil {
		return "", err
	}
	out := part
	for p.tok.kind == tokSlash {
		if err := p.advance(); err != nil {
			return "", err
		}
		part, err := p.expect(tokIdent)
		if err != nil {
			return "", err
		}
		out += "/" + part
	}
	return out, nil
}

// hook runs the hand-written grammar behind the hook field kw of owner;
// the keyword, on the given line, has just been consumed. formatHook
// (format.go) is its rendering twin.
func (p *parser) hook(kw string, owner any, line int) (err error) {
	switch o := owner.(type) {
	case *Config:
		if kw == "feedgroup" {
			return p.feedgroup("", o)
		}
		return p.feed("", o, line)
	case *Feed:
		if kw == "plan" {
			o.Plan, err = p.planSpec(o.Path)
			return err
		}
		// expect <period> <sources>
		if o.ExpectPeriod, err = p.duration(); err != nil {
			return err
		}
		o.ExpectSources, err = p.integer()
		return err
	case *Subscriber:
		return p.trigger(&o.Trigger)
	}
	panic("config: no hook for " + kw)
}

// feedgroup parses: NAME { (feed | feedgroup)* }
func (p *parser) feedgroup(prefix string, cfg *Config) error {
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	path := joinPath(prefix, name)
	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}
	if _, ok := cfg.Groups[path]; !ok {
		cfg.Groups[path] = nil // register even if empty
	}
	for p.tok.kind != tokRBrace {
		kw, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		switch kw {
		case "feed":
			err = p.feed(path, cfg, p.prevLine)
		case "feedgroup":
			err = p.feedgroup(path, cfg)
		default:
			err = p.errPrevf("unknown feedgroup statement %q", kw)
		}
		if err != nil {
			return err
		}
	}
	return p.advance() // consume '}'
}

// feed parses: NAME { body } — the body is schema-driven. A feed may
// omit patterns only when it is the target of some plan's split/route
// operator — checked in resolvePlans, which can see the whole config.
func (p *parser) feed(prefix string, cfg *Config, line int) error {
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	f := &Feed{Name: name, Path: joinPath(prefix, name)}
	cfg.Feeds = append(cfg.Feeds, f)
	return p.body(feedSchema, reflect.ValueOf(f).Elem(), site{noun: "feed", name: f.Path, line: line})
}

// trigger parses:
//
//	trigger perfile [remote] exec "cmd"
//	trigger batch (count N | timeout D | time D)+ [remote] exec "cmd"
func (p *parser) trigger(spec *TriggerSpec) error {
	mode, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	switch mode {
	case "perfile":
		spec.Mode = TriggerPerFile
	case "batch":
		spec.Mode = TriggerBatch
	default:
		return p.errPrevf("unknown trigger mode %q", mode)
	}
	for {
		kw, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		switch kw {
		case "count":
			if spec.Mode != TriggerBatch {
				return p.errPrevf("count only applies to batch triggers")
			}
			if spec.Count, err = p.integer(); err != nil {
				return err
			}
		case "timeout", "time":
			if spec.Mode != TriggerBatch {
				return p.errPrevf("%s only applies to batch triggers", kw)
			}
			if spec.Timeout, err = p.duration(); err != nil {
				return err
			}
		case "remote":
			spec.Remote = true
		case "exec":
			if spec.Exec, err = p.expect(tokString); err != nil {
				return err
			}
			if spec.Mode == TriggerBatch && spec.Count == 0 && spec.Timeout == 0 {
				return p.errPrevf("batch trigger needs count and/or timeout")
			}
			return nil
		default:
			return p.errPrevf("unknown trigger option %q", kw)
		}
	}
}

func joinPath(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "/" + name
}

// resolve validates feed uniqueness, builds group membership, and
// expands subscriber interest sets to leaf feeds.
func resolve(cfg *Config) error {
	seen := make(map[string]bool)
	for _, f := range cfg.Feeds {
		if seen[f.Path] {
			return fmt.Errorf("config: duplicate feed %s", f.Path)
		}
		seen[f.Path] = true
	}
	// Group membership: every ancestor group contains the leaf.
	for _, f := range cfg.Feeds {
		parts := strings.Split(f.Path, "/")
		for i := 1; i < len(parts); i++ {
			g := strings.Join(parts[:i], "/")
			cfg.Groups[g] = append(cfg.Groups[g], f.Path)
		}
	}
	for g := range cfg.Groups {
		sort.Strings(cfg.Groups[g])
	}
	for _, s := range cfg.Subscribers {
		var bad string
		if s.Feeds, bad = cfg.expand(s.Subscriptions, seen); bad != "" {
			return fmt.Errorf("config: subscriber %s: unknown feed or group %q", s.Name, bad)
		}
	}
	if err := resolvePlans(cfg, seen); err != nil {
		return err
	}
	if cfg.Channels != nil {
		if err := resolveChannels(cfg, seen); err != nil {
			return err
		}
	}
	if cfg.HTTP != nil {
		if err := resolveHTTP(cfg, seen); err != nil {
			return err
		}
	}
	return nil
}

// expand resolves feed-or-group paths as written to the sorted set of
// leaf feeds they cover: a leaf stands for itself, a group for every
// leaf beneath it. It returns the first path that is neither.
func (c *Config) expand(paths []string, leaves map[string]bool) (feeds []string, unknown string) {
	set := make(map[string]bool)
	for _, p := range paths {
		if leaves[p] {
			set[p] = true
			continue
		}
		group, ok := c.Groups[p]
		if !ok {
			return nil, p
		}
		for _, leaf := range group {
			set[leaf] = true
		}
	}
	feeds = make([]string, 0, len(set))
	for f := range set {
		feeds = append(feeds, f)
	}
	sort.Strings(feeds)
	return feeds, ""
}

// resolveHTTP expands each principal's feed ACL to leaf feeds, exactly
// the way subscriber interest sets resolve.
func resolveHTTP(cfg *Config, leaves map[string]bool) error {
	for _, pr := range cfg.HTTP.Principals {
		var bad string
		if pr.Feeds, bad = cfg.expand(pr.Subscriptions, leaves); bad != "" {
			return fmt.Errorf("config: http principal %s: unknown feed or group %q", pr.Name, bad)
		}
	}
	return nil
}

// resolveChannels validates the channels block against the resolved
// feeds and subscribers: every group fans out a known leaf feed to
// declared subscribers actually subscribed to it. Runs after
// subscriber subscription expansion, so group membership can be
// checked against effective leaf-feed sets.
func resolveChannels(cfg *Config, leaves map[string]bool) error {
	subsByName := make(map[string]*Subscriber, len(cfg.Subscribers))
	for _, s := range cfg.Subscribers {
		subsByName[s.Name] = s
	}
	groupSeen := make(map[string]bool)
	for _, g := range cfg.Channels.Groups {
		if groupSeen[g.Name] {
			return fmt.Errorf("config: duplicate channel group %q", g.Name)
		}
		groupSeen[g.Name] = true
		if !leaves[g.Feed] {
			return fmt.Errorf("config: channel group %s: %q is not a leaf feed", g.Name, g.Feed)
		}
		memberSeen := make(map[string]bool)
		for _, m := range g.Members {
			if memberSeen[m] {
				return fmt.Errorf("config: channel group %s: duplicate member %q", g.Name, m)
			}
			memberSeen[m] = true
			s, ok := subsByName[m]
			if !ok {
				return fmt.Errorf("config: channel group %s: unknown subscriber %q", g.Name, m)
			}
			subscribed := false
			for _, f := range s.Feeds {
				if f == g.Feed {
					subscribed = true
					break
				}
			}
			if !subscribed {
				return fmt.Errorf("config: channel group %s: member %q does not subscribe to %s", g.Name, m, g.Feed)
			}
		}
	}
	return nil
}

// ResolveSubscriber expands a subscriber's subscriptions against the
// configuration's feeds and groups, filling s.Feeds. Used when adding
// subscribers at runtime.
func (c *Config) ResolveSubscriber(s *Subscriber) error {
	if len(s.Subscriptions) == 0 {
		return fmt.Errorf("config: subscriber %s subscribes to nothing", s.Name)
	}
	leaves := make(map[string]bool, len(c.Feeds))
	for _, f := range c.Feeds {
		leaves[f.Path] = true
	}
	var bad string
	if s.Feeds, bad = c.expand(s.Subscriptions, leaves); bad != "" {
		return fmt.Errorf("config: subscriber %s: unknown feed or group %q", s.Name, bad)
	}
	return nil
}
