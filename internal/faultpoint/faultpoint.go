// Package faultpoint provides named, normally-inert fault-injection sites
// for chaos testing. A site is a plain string naming a place in the code
// ("regen.step", "cache.populate", "laplace.block"); production code calls
// Hit(name) there and acts on the returned error. With no site enabled the
// call is a single atomic load — cheap enough to leave in hot paths.
//
// Sites are enabled programmatically (Enable/Reset, used by tests)
// or through the environment at process start:
//
//	REGENRAND_FAULTPOINTS="regen.step=delay:50ms;cache.populate=error,times:1;laplace.block=panic,after:3"
//
// Entries are ';'-separated. Each entry is name=mode[:arg] followed by
// optional ',after:N' (skip the first N hits) and ',times:N' (trigger at
// most N times). Modes: delay (arg is a time.Duration per triggered hit),
// error (Hit returns ErrInjected), panic (Hit panics).
//
// EnableFromSpec (and hence the environment variable) accepts only the site
// names compiled into this module — see knownSites. A typo in a chaos spec
// would otherwise arm a site that nothing ever hits and the run would
// silently test nothing; unknown names are rejected at parse. The
// programmatic Enable has no such check (tests arm scratch sites freely).
package faultpoint

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects what a triggered site does.
type Mode uint8

// The supported fault modes.
const (
	ModeDelay Mode = iota + 1
	ModeError
	ModePanic
)

// Spec configures one site.
type Spec struct {
	Mode Mode
	// Delay is the sleep per triggered hit (ModeDelay only).
	Delay time.Duration
	// After skips the first After hits before the site starts triggering.
	After int
	// Times caps how many hits trigger (0 = unlimited).
	Times int
}

// ErrInjected is returned by ModeError sites, wrapped with the site name.
var ErrInjected = errors.New("faultpoint: injected error")

// knownSites is the registry of every fault-injection site compiled into
// this module. The site-name constants live next to the code that hits them
// (regen.FaultStep, cache.FaultPopulate, laplace.FaultBlock with its
// per-backend laplace.FaultBlockDurbin/FaultBlockEuler,
// store.FaultRead/FaultWrite, objstore.FaultNetRead/FaultNetWrite/FaultNetList,
// snapshot.FaultDecode); this package cannot
// import those packages, so the list is maintained here and each consumer's
// tests assert Known(itsConstant) to keep the two in sync.
var knownSites = map[string]bool{
	"regen.step":           true,
	"cache.populate":       true,
	"laplace.block":        true,
	"laplace.block.durbin": true,
	"laplace.block.euler":  true,
	"store.read":           true,
	"store.write":          true,
	"store.net.read":       true,
	"store.net.write":      true,
	"store.net.list":       true,
	"snapshot.decode":      true,
}

// Known reports whether name is a registered fault-injection site.
func Known(name string) bool { return knownSites[name] }

// KnownSites returns the sorted registered site names (for error messages
// and docs).
func KnownSites() []string {
	names := make([]string, 0, len(knownSites))
	for n := range knownSites {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type site struct {
	spec  Spec
	hits  int
	fired int
}

var (
	// active counts enabled sites; Hit's fast path is one atomic load.
	active atomic.Int64

	mu    sync.Mutex
	sites = make(map[string]*site)
)

// Enable arms name with s, replacing any previous spec (and resetting its
// hit counters).
func Enable(name string, s Spec) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[name]; !ok {
		active.Add(1)
	}
	sites[name] = &site{spec: s}
}

// Reset disarms every site.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	active.Add(-int64(len(sites)))
	sites = make(map[string]*site)
}

// Hit performs the configured fault at site name: it sleeps, returns an
// injected error, or panics, per the site's Spec. It returns nil when the
// site is unarmed, still within its After window, or exhausted. The
// disarmed fast path is one atomic load.
func Hit(name string) error {
	if active.Load() == 0 {
		return nil
	}
	return hitSlow(name)
}

func hitSlow(name string) error {
	mu.Lock()
	st := sites[name]
	if st == nil {
		mu.Unlock()
		return nil
	}
	st.hits++
	if st.hits <= st.spec.After || (st.spec.Times > 0 && st.fired >= st.spec.Times) {
		mu.Unlock()
		return nil
	}
	st.fired++
	spec := st.spec
	mu.Unlock()
	switch spec.Mode {
	case ModeDelay:
		time.Sleep(spec.Delay)
		return nil
	case ModeError:
		return fmt.Errorf("%w at %s", ErrInjected, name)
	case ModePanic:
		panic("faultpoint: injected panic at " + name)
	}
	return nil
}

func init() {
	if v := os.Getenv("REGENRAND_FAULTPOINTS"); v != "" {
		if err := EnableFromSpec(v); err != nil {
			// A malformed env spec in a chaos run should be loud, not a
			// silently quiet server that then "passes".
			panic("faultpoint: bad REGENRAND_FAULTPOINTS: " + err.Error())
		}
	}
}

// EnableFromSpec parses and arms a ';'-separated spec string in the
// REGENRAND_FAULTPOINTS format documented on the package.
func EnableFromSpec(v string) error {
	for _, entry := range strings.Split(v, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return fmt.Errorf("entry %q: want name=mode[:arg][,after:N][,times:N]", entry)
		}
		if !Known(name) {
			return fmt.Errorf("entry %q: unknown fault site %q (known: %s)", entry, name, strings.Join(KnownSites(), ", "))
		}
		var spec Spec
		for i, part := range strings.Split(rest, ",") {
			key, arg, _ := strings.Cut(part, ":")
			switch {
			case i == 0:
				switch key {
				case "delay":
					d, err := time.ParseDuration(arg)
					if err != nil {
						return fmt.Errorf("entry %q: bad delay %q: %v", entry, arg, err)
					}
					spec.Mode, spec.Delay = ModeDelay, d
				case "error":
					spec.Mode = ModeError
				case "panic":
					spec.Mode = ModePanic
				default:
					return fmt.Errorf("entry %q: unknown mode %q", entry, key)
				}
			case key == "after":
				n, err := strconv.Atoi(arg)
				if err != nil || n < 0 {
					return fmt.Errorf("entry %q: bad after %q", entry, arg)
				}
				spec.After = n
			case key == "times":
				n, err := strconv.Atoi(arg)
				if err != nil || n < 1 {
					return fmt.Errorf("entry %q: bad times %q", entry, arg)
				}
				spec.Times = n
			default:
				return fmt.Errorf("entry %q: unknown option %q", entry, key)
			}
		}
		Enable(name, spec)
	}
	return nil
}
