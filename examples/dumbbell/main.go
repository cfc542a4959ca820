// Dumbbell: the paper's fairness story (Figs. 2 and 15). A fifth flow
// joins four established CUBIC flows at a 50 Mbps bottleneck; with
// plain slow start the newcomer crawls toward its fair share, with
// SUSS it gets there almost immediately.
package main

import (
	"fmt"
	"log"
	"time"

	"suss"
)

func main() {
	base := suss.FairnessConfig{
		RTT:       100 * time.Millisecond,
		BufferBDP: 1,
		JoinAt:    20 * time.Second,
		Horizon:   50 * time.Second,
	}

	for _, withSUSS := range []bool{false, true} {
		cfg := base
		cfg.WithSUSS = withSUSS
		res, err := suss.RunFairness(cfg)
		if err != nil {
			log.Fatal(err)
		}
		name := "SUSS off"
		if withSUSS {
			name = "SUSS on"
		}
		fmt.Printf("%s:\n", name)
		fmt.Printf("  fairness recovery (Jain ≥ 0.95): %v after the join\n", res.RecoveryTime)
		fmt.Printf("  mean post-join Jain index:       %.3f\n", res.MeanPostJoin)
		fmt.Print("  index per second after join:    ")
		for i, f := range res.Jain {
			if i >= 10 {
				break
			}
			fmt.Printf(" %.2f", f)
		}
		fmt.Println()
	}
}
