package elastic

import (
	"strings"
	"testing"
	"time"

	"specsync/internal/des"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
)

type nopHandler struct{}

func (nopHandler) Init(node.Context)             {}
func (nopHandler) Receive(node.ID, wire.Message) {}

func TestInjectorRejectsInvalidServerChanges(t *testing.T) {
	cases := []struct {
		name    string
		servers int
		ev      Event
		want    string
	}{
		{"add-live-slot", 2, Event{Kind: KindAddServer, At: time.Second, Node: 1}, "slot already live"},
		{"remove-dead-slot", 2, Event{Kind: KindRemoveServer, At: time.Second, Node: 3}, "slot not live"},
		{"remove-last-slot", 1, Event{Kind: KindRemoveServer, At: time.Second, Node: 0}, "would empty the server set"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sim, err := des.New(des.Config{Seed: 1, Registry: msg.Registry()})
			if err != nil {
				t.Fatal(err)
			}
			built := 0
			inj, err := Attach(sim, Options{
				Plan:    &Plan{Events: []Event{c.ev}},
				Servers: c.servers,
				NewServer: func(slot int) (node.Handler, error) {
					built++
					return nopHandler{}, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			sim.Init()
			sim.RunFor(2 * time.Second)
			// The cluster has no scheduler node, so a ScaleCmd the injector
			// issued anyway would surface as a second (inject) error.
			errs := inj.Errs()
			if len(errs) != 1 || !strings.Contains(errs[0].Error(), c.want) {
				t.Fatalf("errs = %v, want one containing %q", errs, c.want)
			}
			if built != 0 {
				t.Errorf("built %d server handlers for a rejected event", built)
			}
		})
	}
}

func TestAttachRequiresConstructors(t *testing.T) {
	sim, err := des.New(des.Config{Seed: 1, Registry: msg.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(sim, Options{}); err == nil {
		t.Error("Attach accepted a nil plan")
	}
	addWorker := &Plan{Events: []Event{{Kind: KindAddWorker, At: time.Second, Node: 2}}}
	if _, err := Attach(sim, Options{Plan: addWorker, Servers: 1}); err == nil || !strings.Contains(err.Error(), "NewWorker is nil") {
		t.Errorf("add-worker without NewWorker: err = %v", err)
	}
	addServer := &Plan{Events: []Event{{Kind: KindAddServer, At: time.Second, Node: 1}}}
	if _, err := Attach(sim, Options{Plan: addServer, Servers: 1}); err == nil || !strings.Contains(err.Error(), "NewServer is nil") {
		t.Errorf("add-server without NewServer: err = %v", err)
	}
}
