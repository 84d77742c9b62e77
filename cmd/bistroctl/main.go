// Command bistroctl is the source-side client for a Bistro server: it
// uploads files into the landing zone, announces files deposited via a
// shared filesystem, marks end-of-batch punctuation, and renders the
// server's live status from the admin endpoint.
//
// Usage:
//
//	bistroctl -server host:port upload file1 [file2 ...]
//	bistroctl -server host:port ready rel/path1 [rel/path2 ...]
//	bistroctl -server host:port eob [feed]
//	bistroctl -server host:port watch dir       # agent mode: poll dir, upload new files
//	bistroctl -admin host:port status           # render /statusz from the admin endpoint
//	bistroctl -admin host:port replay           # list replay sessions and their watermarks
//	bistroctl -http host:port -token T tail feed  # page a feed's log over the pull data plane
//	bistroctl plan config-file [feed ...]       # dry-run: print compiled plan operator chains
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"bistro/internal/sourceclient"
)

func main() {
	var (
		serverAddr = flag.String("server", "127.0.0.1:9400", "Bistro server address")
		adminAddr  = flag.String("admin", "127.0.0.1:9090", "Bistro admin endpoint address (status)")
		name       = flag.String("name", "bistroctl", "source name")
		timeout    = flag.Duration("timeout", 10*time.Second, "operation timeout")
		interval   = flag.Duration("interval", 2*time.Second, "watch/tail poll interval")
		remove     = flag.Bool("remove", false, "watch: delete local files after upload")
		httpAddr   = flag.String("http", "127.0.0.1:9480", "Bistro HTTP data plane address (tail)")
		token      = flag.String("token", "", "tail: bearer token for the HTTP data plane")
		from       = flag.String("from", "", "tail: starting cursor (sequence number or RFC3339 time)")
		follow     = flag.Bool("follow", false, "tail: keep polling for new entries")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	// status and replay talk HTTP to the admin endpoint, not the feed
	// protocol — handle them before dialing the protocol listener.
	if args[0] == "status" {
		if err := runStatus(*adminAddr, *timeout, os.Stdout); err != nil {
			fatal("status: %v", err)
		}
		return
	}
	if args[0] == "replay" {
		if err := runReplay(*adminAddr, *timeout, os.Stdout); err != nil {
			fatal("replay: %v", err)
		}
		return
	}
	// plan is fully offline: it compiles a config the way the server
	// would and prints the operator chains.
	if args[0] == "plan" {
		if len(args) < 2 {
			usage()
		}
		if err := runPlan(args[1], args[2:], os.Stdout); err != nil {
			fatal("plan: %v", err)
		}
		return
	}
	if args[0] == "tail" {
		if len(args) != 2 {
			usage()
		}
		next, err := runTail(*httpAddr, *token, args[1], *from, *follow, *interval, *timeout, os.Stdout)
		if err != nil {
			fatal("tail: %v", err)
		}
		fmt.Fprintf(os.Stderr, "bistroctl: caught up; resume with -from %d\n", next)
		return
	}

	client, err := sourceclient.Dial(*serverAddr, *name, *timeout)
	if err != nil {
		fatal("%v", err)
	}
	defer client.Close()

	switch args[0] {
	case "upload":
		if len(args) < 2 {
			usage()
		}
		for _, path := range args[1:] {
			info, err := os.Stat(path)
			if err != nil {
				fatal("read %s: %v", path, err)
			}
			if err := client.UploadFile(filepath.Base(path), path); err != nil {
				fatal("upload %s: %v", path, err)
			}
			fmt.Printf("uploaded %s (%d bytes)\n", filepath.Base(path), info.Size())
		}
	case "ready":
		if len(args) < 2 {
			usage()
		}
		for _, rel := range args[1:] {
			if err := client.FileReady(rel); err != nil {
				fatal("ready %s: %v", rel, err)
			}
			fmt.Printf("announced %s\n", rel)
		}
	case "watch":
		if len(args) != 2 {
			usage()
		}
		stop := make(chan struct{})
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			close(stop)
		}()
		fmt.Fprintf(os.Stderr, "bistroctl: watching %s (every %s)\n", args[1], *interval)
		err := client.WatchDir(args[1], sourceclient.WatchOptions{
			Interval: *interval,
			Stop:     stop,
			Remove:   *remove,
			OnUpload: func(name string, err error) {
				if err != nil {
					fmt.Fprintf(os.Stderr, "bistroctl: upload %s: %v\n", name, err)
					return
				}
				fmt.Printf("uploaded %s\n", name)
			},
		})
		if err != nil {
			fatal("%v", err)
		}
	case "eob":
		feed := ""
		if len(args) > 1 {
			feed = args[1]
		}
		if err := client.EndOfBatch(feed); err != nil {
			fatal("eob: %v", err)
		}
		fmt.Println("end-of-batch sent")
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bistroctl -server host:port {upload files... | ready paths... | eob [feed] | watch dir}")
	fmt.Fprintln(os.Stderr, "       bistroctl -admin host:port {status | replay}")
	fmt.Fprintln(os.Stderr, "       bistroctl -http host:port -token T tail feed [-from cursor] [-follow]")
	fmt.Fprintln(os.Stderr, "       bistroctl plan config-file [feed ...]   # dry-run: print compiled operator chains")
	os.Exit(2)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bistroctl: "+format+"\n", args...)
	os.Exit(1)
}
